(** First-class registry of the named CDAG generators, and the one spec
    language that resolves them.

    Every generator the toolkit knows about — the paper's kernels
    (matmul, FFT, stencils, solvers) plus the synthetic shapes — is one
    {!t} in one table: a name, a positional integer-parameter schema, a
    one-line doc string and a frozen builder.  The eight regular
    families (chain, tree, diamond, fft, matmul, jacobi1d/2d/3d) also
    carry their {!Implicit_gen} builder, from which the frozen one is
    materialized.  The CLI ([dmc gen/bounds/game/sweep], [--stream],
    [--symbolic]), the daemon, the fuzzer and the experiment suite all
    resolve specs through {!resolve}, so adding a generator here makes
    it reachable everywhere.

    A spec is ["name:1,2"].  Frozen specs give every parameter; an
    implicit spec may omit the trailing parameters its entry declares
    [defaults] for — e.g. ["jacobi1d:1000000000"] means T = 8 — so
    billion-point specs read naturally on the CLI.  Every rejection is
    an [Error], including a generator's own size checks: a spec is user
    input, and a bad one must not take down a long-running caller. *)

type t = {
  name : string;
  params : string list;  (** positional parameter names, e.g. [["N"; "T"]] *)
  doc : string;          (** one-line description for listings *)
  build : int list -> Dmc_cdag.Cdag.t;
      (** partial: only defined for [List.length params] arguments —
          call through {!build} for arity checking *)
  defaults : int list;
      (** defaults for a suffix of [params], applied to implicit specs
          only; [[]] for every frozen-only entry *)
  implicit : (int list -> Dmc_cdag.Implicit.t) option;
      (** the never-materialized form, for the regular families; full
          arity only *)
}

val all : t list
(** The registry, in documentation order. *)

val names : string list

val find : string -> t option

val signature : t -> string
(** ["name:P1,P2"] — the spec syntax for this workload. *)

val spec_doc : unit -> string
(** The one-line CLI help string listing every workload signature. *)

val resolve : ?implicit:bool -> string -> (t * int list, string) result
(** Split a spec, find its entry and check its arity — everything
    {!parse} does short of building the graph.  With [~implicit:true]
    only entries with an implicit form match, and the returned
    arguments have the omitted trailing defaults filled in.
    Non-integer parameters, unknown names and arity mismatches all
    produce messages that state the expected signature or list the
    known generators. *)

val build : string -> int list -> (Dmc_cdag.Cdag.t, string) result
(** Arity-checked build.  Errors name the expected signature, or list
    the known generators when the name is unknown; a generator's size
    error ([Invalid_argument]) is returned as [Error] with its
    message. *)

val parse : string -> (Dmc_cdag.Cdag.t, string) result
(** {!resolve} a spec and build it. *)

val build_exn : string -> int list -> Dmc_cdag.Cdag.t
(** {!build}, raising [Failure] on error. *)

val parse_exn : string -> Dmc_cdag.Cdag.t
(** {!parse}, raising [Failure] on error. *)

val build_implicit : string -> int list -> (Dmc_cdag.Implicit.t, string) result
(** {!build} for the implicit form, with trailing-default padding. *)

val parse_implicit : string -> (Dmc_cdag.Implicit.t, string) result
(** {!resolve} a spec in implicit mode and build its implicit form. *)
