module Implicit = Dmc_cdag.Implicit
module Subgraph = Dmc_cdag.Subgraph
module Json = Dmc_util.Json
module Pool = Dmc_runtime.Pool

type window_bound = { lo : int; hi : int; bound : int }

type result = {
  total : int;
  n_windows : int;
  degraded : int;
  windows : window_bound array;
}

let default_window = 4096

let c_windows = Dmc_obs.Counter.make "core.streaming.windows"

let window_bound ?samples imp ~s ~lo ~hi =
  Dmc_obs.Counter.incr c_windows;
  let part = Implicit.window imp ~lo ~hi in
  Wavefront.lower_bound ?samples part.Subgraph.graph ~s

let layout imp ~window =
  if window <= 0 then invalid_arg "Streaming.wavefront_sum: window <= 0";
  let n = imp.Implicit.n_vertices in
  let n_windows = (n + window - 1) / window in
  (n, n_windows)

let wavefront_sum ?samples ?(window = default_window) imp ~s =
  let n, n_windows = layout imp ~window in
  let windows =
    Array.init n_windows (fun w ->
        let lo = w * window and hi = min n ((w + 1) * window) in
        { lo; hi; bound = window_bound ?samples imp ~s ~lo ~hi })
  in
  {
    total = Array.fold_left (fun acc w -> acc + w.bound) 0 windows;
    n_windows;
    degraded = 0;
    windows;
  }

(* Fan the windows out over the supervised pool.  The implicit graph
   crosses into each worker by fork (closures need no serialization),
   and results are committed in window order, so the output — totals
   and the per-window rows — is identical for every [jobs] width.  A
   window whose worker dies (crash, timeout after retries) degrades to
   the trivial bound 0, which keeps the Theorem-2 sum sound. *)
let wavefront_sum_pooled ?samples ?(window = default_window) ?timeout
    ?(retries = 2) ~jobs imp ~s =
  let n, n_windows = layout imp ~window in
  let cfg = { Pool.default with jobs; timeout; max_retries = retries } in
  let worker _ w =
    let lo = w * window and hi = min n ((w + 1) * window) in
    Ok (Json.Int (window_bound ?samples imp ~s ~lo ~hi))
  in
  let outcomes = Pool.run cfg ~worker (List.init n_windows (fun w -> w)) in
  let degraded = ref 0 in
  let windows =
    Array.init n_windows (fun w ->
        let lo = w * window and hi = min n ((w + 1) * window) in
        let bound =
          match outcomes.(w).Pool.verdict with
          | Pool.Done (Json.Int b) -> b
          | _ ->
              incr degraded;
              0
        in
        { lo; hi; bound })
  in
  {
    total = Array.fold_left (fun acc w -> acc + w.bound) 0 windows;
    n_windows;
    degraded = !degraded;
    windows;
  }
