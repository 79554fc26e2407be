(** A governed bound computation as a pure, serializable job.

    [dmc bounds --jobs N] ships one of these per engine to a pool
    worker: the CDAG travels in its text serialization, the engine by
    name, and the budget by value — the closure is reconstructed on
    the other side with {!Bounds.row}, so a job is fully described by
    data and can be logged, checkpointed, or replayed verbatim. *)

type t = {
  engine : string;  (** a name from {!Bounds.engines} *)
  graph : string;  (** {!Dmc_cdag.Serialize.to_string} text *)
  s : int;
  p : int;
      (** processor count; only engines whose quantity
          {!Bounds.reads_p} read it *)
  timeout : float option;  (** cooperative per-rung deadline *)
  node_budget : int option;
  samples : int;
}

val make :
  ?timeout:float -> ?node_budget:int -> ?samples:int -> ?p:int ->
  Dmc_cdag.Cdag.t -> s:int -> engine:string -> t
(** [samples] defaults to 64, matching {!Bounds.analyze_governed};
    [p] defaults to 1 (single-processor jobs never mention it, and
    checkpoints written before the multi-processor engines existed
    deserialize with the same default). *)

val to_json : t -> Dmc_util.Json.t

val of_json : Dmc_util.Json.t -> (t, string) result

val run : t -> (Dmc_util.Json.t, Dmc_util.Budget.failure) result
(** Run the job's engine through {!Bounds.row} and return the row as
    a {!Bounds.row_to_json} payload.  [Error] only for jobs broken
    before any engine runs: an unparseable graph, an unknown engine
    name, or [p] or [s] below 1 is [Invalid_input] — resource
    exhaustion inside the ladder degrades within the row instead. *)
