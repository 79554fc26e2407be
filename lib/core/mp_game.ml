module Bitset = Dmc_util.Bitset
module Cdag = Dmc_cdag.Cdag

type move =
  | Load of { proc : int; v : Cdag.vertex }
  | Store of { proc : int; v : Cdag.vertex }
  | Compute of { proc : int; v : Cdag.vertex }
  | Delete of { proc : int; v : Cdag.vertex }

let pp_move ppf = function
  | Load { proc; v } -> Format.fprintf ppf "p%d: load %d" proc v
  | Store { proc; v } -> Format.fprintf ppf "p%d: store %d" proc v
  | Compute { proc; v } -> Format.fprintf ppf "p%d: compute %d" proc v
  | Delete { proc; v } -> Format.fprintf ppf "p%d: delete %d" proc v

type stats = {
  loads : int;
  stores : int;
  io : int;
  computes : int;
  max_red : int;
  per_proc_io : int array;
  per_proc_computes : int array;
  makespan : int;
}

type error = Rb_game.error = { step : int; reason : string }

type checker = (move, stats) Rb_game.checker

let illegal = Rb_game.illegal

let start ~g_cost g ~p ~s =
  if p <= 0 then invalid_arg "Mp_game.start: p must be positive";
  if s <= 0 then invalid_arg "Mp_game.start: s must be positive";
  if g_cost < 0 then invalid_arg "Mp_game.start: g_cost must be non-negative";
  let n = Cdag.n_vertices g in
  let red = Array.init p (fun _ -> Bitset.create n) in
  let blue = Bitset.create n in
  List.iter (Bitset.add blue) (Cdag.inputs g);
  let computed = Bitset.create n in
  let input_read = Bitset.create n in
  (* Availability time of each blue value: inputs are resident in slow
     memory from the start, computed values only once a store to them
     completes.  A load's transfer cannot begin before the value is
     available, which is what serializes cross-processor
     communication in the makespan. *)
  let blue_at = Array.make n 0 in
  let clock = Array.make p 0 in
  let loads = ref 0 and stores = ref 0 and computes = ref 0 and max_red = ref 0 in
  let per_io = Array.make p 0 and per_comp = Array.make p 0 in
  let place proc v =
    if not (Bitset.mem red.(proc) v) then begin
      if Bitset.cardinal red.(proc) >= s then
        illegal "no free red pebble on processor %d (S = %d)" proc s;
      Bitset.add red.(proc) v;
      if Bitset.cardinal red.(proc) > !max_red then
        max_red := Bitset.cardinal red.(proc)
    end
  in
  let play = function
    | Load { proc; _ } | Store { proc; _ } | Compute { proc; _ } | Delete { proc; _ }
      when proc < 0 || proc >= p ->
        illegal "processor %d out of range (p = %d)" proc p
    | Load { v; _ } | Store { v; _ } | Compute { v; _ } | Delete { v; _ }
      when v < 0 || v >= n ->
        illegal "vertex %d out of range" v
    | Load { proc; v } ->
        if not (Bitset.mem blue v) then
          illegal "load %d: no blue pebble (value never communicated)" v;
        place proc v;
        if Cdag.is_input g v then Bitset.add input_read v;
        incr loads;
        per_io.(proc) <- per_io.(proc) + 1;
        clock.(proc) <- max clock.(proc) blue_at.(v) + g_cost
    | Store { proc; v } ->
        if not (Bitset.mem red.(proc) v) then
          illegal "store %d: no red pebble on processor %d" v proc;
        incr stores;
        per_io.(proc) <- per_io.(proc) + 1;
        clock.(proc) <- clock.(proc) + g_cost;
        if not (Bitset.mem blue v) then begin
          Bitset.add blue v;
          blue_at.(v) <- clock.(proc)
        end
    | Compute { proc; v } ->
        if Cdag.is_input g v then illegal "compute %d: inputs cannot fire" v;
        if Bitset.mem computed v then
          illegal "compute %d: already computed (recomputation forbidden)" v;
        (* the last predecessor not red on [proc] *)
        let missing =
          Cdag.fold_pred g v (fun acc u -> if Bitset.mem red.(proc) u then acc else u) (-1)
        in
        if missing >= 0 then
          illegal "compute %d: predecessor %d not red on processor %d" v missing proc;
        place proc v;
        Bitset.add computed v;
        incr computes;
        per_comp.(proc) <- per_comp.(proc) + 1;
        clock.(proc) <- clock.(proc) + 1
    | Delete { proc; v } ->
        if not (Bitset.mem red.(proc) v) then
          illegal "delete %d: no red pebble on processor %d" v proc;
        Bitset.remove red.(proc) v
  in
  let complete () =
    List.iter
      (fun v ->
        if not (Bitset.mem blue v) then illegal "output %d has no blue pebble at the end" v)
      (Cdag.outputs g);
    List.iter
      (fun v ->
        if not (Bitset.mem input_read v) then
          illegal "input %d was never loaded by any processor" v)
      (Cdag.inputs g);
    {
      loads = !loads;
      stores = !stores;
      io = !loads + !stores;
      computes = !computes;
      max_red = !max_red;
      per_proc_io = per_io;
      per_proc_computes = per_comp;
      makespan = Array.fold_left max 0 clock;
    }
  in
  Rb_game.checker ~play ~complete

let step = Rb_game.step
let finish = Rb_game.finish
let run ?(g_cost = 1) g ~p ~s moves = Rb_game.replay (start ~g_cost g ~p ~s) moves
