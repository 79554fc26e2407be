(** A governed bound computation as a pure, serializable job.

    [dmc bounds --jobs N] ships one of these per engine to a pool
    worker: the CDAG travels in its text serialization, the engine by
    name, and the budget by value — the closure is reconstructed on
    the other side with {!Bounds.row}, so a job is fully described by
    data and can be logged, checkpointed, or replayed verbatim.

    A job built in the same process also keeps the graph itself, so a
    forked worker runs on the coordinator's graph instead of parsing
    the text again. *)

type t = {
  engine : string;  (** a name from {!Bounds.engines} *)
  graph : string;  (** {!Dmc_cdag.Serialize.to_string} text *)
  cdag : (Dmc_cdag.Cdag.t, string) result Lazy.t;
      (** [graph] parsed: the built graph itself for {!make}, the text
          parsed on first use otherwise *)
  s : int;
  p : int;
      (** processor count; only engines whose quantity
          {!Bounds.reads_p} read it *)
  timeout : float option;  (** cooperative per-rung deadline *)
  node_budget : int option;
  samples : int;
  record : Wavefront.record option;
      (** the graph's wavefront min-cut record
          ({!Bounds.wavefront_record}), replayed by the row's ladder.
          Trusted coordinator data: the row believes its cut values. *)
}

val make :
  ?timeout:float -> ?node_budget:int -> ?samples:int -> ?p:int ->
  ?record:Wavefront.record -> Dmc_cdag.Cdag.t -> s:int -> engine:string -> t
(** [samples] defaults to 64, matching {!Bounds.analyze_governed};
    [p] defaults to 1 (single-processor jobs never mention it, and
    checkpoints written before the multi-processor engines existed
    deserialize with the same default). *)

val of_text :
  ?timeout:float -> ?node_budget:int -> ?samples:int -> ?p:int -> string ->
  s:int -> engine:string -> t
(** A job over serialized graph text, parsed on first use; no
    record.  Defaults as in {!make}. *)

val to_json : t -> Dmc_util.Json.t
(** The job as JSON; a record travels as ["wavefront_record"], with
    only its asked vertices ({!Wavefront.record_to_json}). *)

val of_json : Dmc_util.Json.t -> (t, string) result
(** The inverse of {!to_json}.  The graph text is parsed lazily, by
    {!run}; a job without ["wavefront_record"] has no record. *)

val run : t -> (Dmc_util.Json.t, Dmc_util.Budget.failure) result
(** Run the job's engine through {!Bounds.row} and return the row as
    a {!Bounds.row_to_json} payload.  [Error] only for jobs broken
    before any engine runs: an unparseable graph, an unknown engine
    name, [p] or [s] below 1, or a record that does not
    {!Wavefront.record_fits} the graph is [Invalid_input] — resource
    exhaustion inside the ladder degrades within the row instead. *)
