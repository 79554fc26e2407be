module Implicit := Dmc_cdag.Implicit

(** Streaming wavefront bounds over implicit graphs.

    A frozen graph too big to hold is still easy to {e window}: the
    id range [0 .. n) is cut into consecutive windows, each window is
    materialized on demand ({!Implicit.window}, Theorem-2 tagging),
    bounded with the standard wavefront engine, and the per-window
    bounds are summed.  By Theorem 2 the sum is a valid I/O lower
    bound for the whole CDAG, and memory stays proportional to one
    window.  This is the mid-scale tool — graphs of 10^6..10^8
    vertices that are enumerable but not materializable; for
    billion-node instances use {!Symbolic_bounds}, which never
    enumerates at all. *)

type window_bound = { lo : int; hi : int; bound : int }

type result = {
  total : int;  (** the Theorem-2 sum — a valid whole-graph bound *)
  n_windows : int;
  degraded : int;
      (** windows that fell back to the trivial bound 0 after their
          pool worker failed; always 0 from {!wavefront_sum} *)
  windows : window_bound array;
}

val default_window : int
(** 4096 vertices per window. *)

val wavefront_sum :
  ?samples:int -> ?window:int -> Implicit.t -> s:int -> result
(** Sequential sweep.  [samples] is forwarded to
    {!Wavefront.lower_bound} (windows at or below its exact threshold
    are solved exactly).  Deterministic: the engine seeds its own rng
    per window. *)

val wavefront_sum_pooled :
  ?samples:int ->
  ?window:int ->
  ?timeout:float ->
  ?retries:int ->
  jobs:int ->
  Implicit.t ->
  s:int ->
  result
(** The same sweep on [jobs >= 1] {!Dmc_runtime.Pool} fork workers, each
    window under the hard deadline [timeout] with [retries] retries
    (default 2).  Results commit in window order, so totals and rows
    equal {!wavefront_sum}'s at every width; a window whose worker fails
    after retries contributes the sound trivial bound 0 and is counted
    in [degraded]. *)
