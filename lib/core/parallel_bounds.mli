module Hierarchy := Dmc_machine.Hierarchy

(** The parallel lower bounds of Section 4: Theorems 5–7 lift a
    sequential (single-processor) bound or a [U(2S)] estimate to the
    vertical and horizontal data movement of any valid P-RBW game. *)

val vertical_from_sequential :
  hierarchy:Hierarchy.t -> level:int -> seq_lb:(s:int -> float) -> float
(** Theorem 5: the level-[l] unit with the most write-back traffic
    receives at least [IO_1(C, S_{l-1} N_{l-1}) / N_l] words, where
    [IO_1(C, S)] is the sequential I/O lower bound with [S] words of
    fast memory, supplied as [seq_lb].  Requires [2 <= level <= L]. *)

val vertical_from_u :
  hierarchy:Hierarchy.t -> level:int -> work:float -> u:float -> float
(** Theorem 6: with [U = U(C, 2 S_{l-1})] the largest 2S-partition
    subset, the busiest level-[l] unit moves at least
    [(|V| / (U N_l) - N_{l-1} / N_l) * S_{l-1}] words; clamped at 0. *)

val horizontal_from_u :
  hierarchy:Hierarchy.t -> work:float -> u:float -> float
(** Theorem 7: the level-[L] unit whose processor group computes the
    most fires at least [(|V| / (U P_i) - 1) * S_L] remote-get words,
    with [P_i = P / N_L] the group size; clamped at 0. *)

val per_processor_work : hierarchy:Hierarchy.t -> work:float -> float
(** [|V| / P]: the work of the busiest processor is at least this. *)

(** {1 Multi-processor game bounds (arXiv 2409.03898)}

    The MPP model of {!Mp_game}: [p] processors with private [S]-word
    fast memories communicating through one slow memory. *)

val mp_comm_from_sequential : p:int -> seq_lb:(s:int -> int) -> s:int -> int
(** Communication lower bound by simulation: a single processor whose
    fast memory is the {e union} of the [p] private memories ([p * S]
    red pebbles) can replay any [p]-processor game move-for-move with
    the same I/O, so [IO_mp(p, S) >= IO_1(p * S)].  [seq_lb] is any
    sound sequential lower bound (e.g. {!Wavefront.lower_bound} or
    {!Bounds.io_floor}).  Monotone non-increasing in [p], and at
    [p = 1] it is exactly the sequential bound. *)

val span : Dmc_cdag.Cdag.t -> int
(** Critical-path length counting compute vertices — the
    parallelism-independent makespan floor that [mp-time-lb] passes as
    {!mp_time_lower}'s [span]. *)

val mp_time_lower :
  p:int -> g_cost:int -> work:int -> span:int -> comm_lb:int -> int
(** Makespan lower bound under the cost model [compute = 1,
    I/O = g_cost]: no schedule beats the critical path ([span],
    counting compute vertices), and the total busy time
    [work + g_cost * comm_lb] spread over [p] processors makes the
    busiest one take at least its [ceil]-share. *)
