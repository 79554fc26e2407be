(** The experiment registry (see the experiment index in DESIGN.md).

    Each experiment is an {!Experiment.t}: named serializable parts
    plus a pure assembler from part payloads to a {!Doc.t}.  The CLI
    renders the document as text (byte-identical to the historical
    print-based output), JSON, or Markdown, and runs the parts on the
    worker pool or reloads them from a checkpoint. *)

val experiments : Experiment.t list
(** All experiments, in the canonical run order. *)

val find : string -> Experiment.t option

val names : (string * (unit -> bool)) list
(** Print-and-check thunks in registry order, for the bench harness:
    each runs every part in-process, prints the text rendering to
    stdout, and returns whether every check passed. *)
