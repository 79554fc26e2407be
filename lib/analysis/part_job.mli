(** One experiment part as a pure, serializable job — the experiment
    counterpart of {!Dmc_core.Engine_job}.

    [dmc experiment] ships one of these per part to a pool worker, at
    every [--jobs] width: the experiment and part travel by name and
    the computation is reconstructed on the other side through the
    {!Report.experiments} registry, so a job is fully described by
    data and can be logged, checkpointed, or replayed verbatim.  The
    resulting payload is the part's JSON, exactly what the v3
    experiment checkpoint stores. *)

type t = { exp : string; part : string }

val to_json : t -> Dmc_util.Json.t

val of_json : Dmc_util.Json.t -> (t, string) result

val run : t -> (Dmc_util.Json.t, string) result
(** Resolve the part through the registry and run it; [Error] names an
    unknown experiment or part (a job from another build's
    registry). *)
