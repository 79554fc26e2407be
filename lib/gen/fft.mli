module Cdag := Dmc_cdag.Cdag

(** The FFT butterfly CDAG — the classic non-trivial example of the
    Hong–Kung paper and of the no-recomputation literature (Savage,
    Ranjan et al.).  Its sequential I/O complexity with fast memory [S]
    is [Θ(n log n / log S)].  {!butterfly} is the materialized
    {!Implicit_gen.butterfly}. *)

val butterfly : int -> Cdag.t
(** [butterfly k] is the [n = 2^k]-input FFT graph: [k] ranks of [n]
    vertices each; the vertex for value [i] at rank [r+1] depends on the
    rank-[r] vertices [i] and [i lxor 2^r].  Inputs are the rank-0
    vertices, outputs the rank-[k] ones.  [(k+1) * 2^k] vertices.
    Raises [Invalid_argument] when [k < 0] or the size overflows. *)

val vertex : k:int -> rank:int -> int -> Cdag.vertex
(** Id of the vertex for value index [i] at the given rank, matching
    the numbering used by {!butterfly}. *)

val bitonic_sort : int -> Cdag.t
(** [bitonic_sort k]: Batcher's bitonic sorting network on [n = 2^k]
    values as a CDAG — the sorting workload of the I/O-complexity
    canon (Aggarwal–Vitter, cited in Section 6).  Each comparator is a
    pair of vertices (min and max outputs) reading the same two wires;
    the network has [k (k + 1) / 2] stages of [n] vertices each, so
    [n (1 + k (k + 1) / 2)] vertices.  Its data-movement behaviour matches
    the FFT's [Θ(n log n / log S)] regime per stage-block. *)

val blocked_order : k:int -> group_bits:int -> Cdag.vertex array
(** The classic I/O-optimal butterfly schedule: the [k] ranks are cut
    into passes of [group_bits] ranks each; within a pass, the [2^k]
    value lines split into independent groups of [2^group_bits] lines
    (the lines whose active index bits vary), and each group's
    sub-butterfly is computed to completion before the next group is
    touched.  With [S = Θ(2^group_bits)] red pebbles this attains
    [Θ(n log n / log S)] I/O — matching {!Dmc_core.Analytic.fft_lb}'s
    shape.  Requires [1 <= group_bits]. *)
