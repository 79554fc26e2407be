(** The experiment model behind [dmc experiment].

    An experiment is a list of named {e parts} — independent,
    serializable units of computation, each returning a JSON payload —
    plus a pure function assembling those payloads into a {!Doc.t}.
    [dmc experiment] runs the parts on the supervised worker pool
    (payloads cross the process boundary as JSON) or reloads them from
    a checkpoint, and tests and the bench run them in-process with
    {!doc}; the document, and hence every renderer's output, is
    byte-identical in all three cases. *)

type part = {
  part : string;               (** unique within the experiment *)
  run : unit -> Dmc_util.Json.t;  (** the (possibly expensive) computation *)
}

type t = {
  name : string;
  parts : part list;
  doc_of_parts : Dmc_util.Json.t list -> Doc.t;
      (** payloads arrive in [parts] order; must be cheap and pure *)
}

val doc : t -> Doc.t
(** Run every part in-process, in order, and assemble the document. *)

val part_names : t -> string list

val find_part : t -> string -> part option

exception Malformed of string
(** Raised by the payload accessors below on a shape mismatch — only
    possible when payloads and code are from different versions, which
    the checkpoint layer rejects up front. *)

val malformed : ('a, unit, string, 'b) format4 -> 'a
(** Raise {!Malformed} with a formatted message. *)

(** Field accessors for part payloads. *)
module P : sig
  val field : Dmc_util.Json.t -> string -> Dmc_util.Json.t
  val int : Dmc_util.Json.t -> string -> int
  val float : Dmc_util.Json.t -> string -> float
  val str : Dmc_util.Json.t -> string -> string
  val bool : Dmc_util.Json.t -> string -> bool
  val list : Dmc_util.Json.t -> string -> Dmc_util.Json.t list
  val objs : Dmc_util.Json.t -> string -> Dmc_util.Json.t list
  val int_opt : Dmc_util.Json.t -> string -> int option
  val of_int_opt : int option -> Dmc_util.Json.t
  val strings : Dmc_util.Json.t -> string -> string list
  val of_strings : string list -> Dmc_util.Json.t
end

val verdict_to_json : Dmc_machine.Balance.verdict -> Dmc_util.Json.t

val verdict_of_json : Dmc_util.Json.t -> Dmc_machine.Balance.verdict

val blocks_to_json : Doc.block list -> Dmc_util.Json.t
(** Parts that pre-render report fragments (tables, prose) store them
    as a list of {!Doc.block}s in their payload. *)

val blocks_of_json : Dmc_util.Json.t -> Doc.block list

val blocks_field : Dmc_util.Json.t -> string -> Doc.block list

val block_field : Dmc_util.Json.t -> string -> Doc.block
(** A payload field holding exactly one pre-rendered block. *)
