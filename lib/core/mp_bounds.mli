(** The engines of the multi-processor game ({!Mp_game}, after
    arXiv 2409.03898) and the partial-computation game ({!Pc_game},
    after arXiv 2506.10854), as a view of {!Bounds.engines}.

    They are the table's entries whose quantity is not
    {!Bounds.Seq}: the sequential engines answer "how much I/O does
    this CDAG force at capacity S", these answer the parallel
    questions "how much communication and how much time does it force
    at (p, S)", and how much I/O with partial computations.  Each
    produces an ordinary {!Bounds.row} through {!Bounds.row} and the
    same fallback-ladder discipline, so the sweep, job-pool and report
    machinery consume every engine uniformly.

    Soundness of the communication lower bound rests on the simulation
    argument: one processor with the pooled fast memory of [p * S]
    words can replay any [p]-processor execution, so
    [IO_mp(p, S) >= IO_1(p * S)].  The bound is therefore monotone
    non-increasing in [p] and coincides with the sequential wavefront
    bound at [p = 1]. *)

val is_engine : string -> bool
(** [true] for exactly [mp-comm-lb], [mp-comm-ub], [mp-time-lb],
    [mp-time-ub], [pc-io-lb] and [pc-io-ub]. *)

val kind_of : string -> Bounds.kind option
(** The kind of one of those six engines; [None] for any other name. *)
