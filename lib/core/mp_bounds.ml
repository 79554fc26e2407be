module Cdag = Dmc_cdag.Cdag
module Budget = Dmc_util.Budget

type info = {
  name : string;
  kind : Bounds.kind;
  doc : string;
}

let engines =
  [
    {
      name = "mp-comm-lb";
      kind = Bounds.Lower;
      doc =
        "communication LB: sequential wavefront bound at capacity p*S \
         (one processor with the pooled fast memory simulates the game)";
    };
    {
      name = "mp-comm-ub";
      kind = Bounds.Upper;
      doc =
        "communication UB: I/O of a valid p-processor Belady schedule \
         (cross-processor values travel store -> load through slow memory)";
    };
    {
      name = "mp-time-lb";
      kind = Bounds.Lower;
      doc =
        "makespan LB: max of the critical path and the busiest \
         processor's ceil-share of compute + g*comm work";
    };
    {
      name = "mp-time-ub";
      kind = Bounds.Upper;
      doc =
        "makespan UB: list-scheduling makespan of the replayed \
         p-processor Belady schedule (compute = 1, I/O = g)";
    };
    {
      name = "pc-io-lb";
      kind = Bounds.Lower;
      doc =
        "partial-computation I/O LB: the I/O floor (inputs read + \
         outputs written; S-partition arguments do not survive partial \
         recomputation)";
    };
    {
      name = "pc-io-ub";
      kind = Bounds.Upper;
      doc =
        "partial-computation I/O UB: I/O of a valid Begin/Absorb/Finish \
         Belady schedule (two red pebbles cover any in-degree)";
    };
  ]

let engine_names = List.map (fun e -> e.name) engines

let find name = List.find_opt (fun e -> e.name = name) engines

let is_engine name = find name <> None

let kind_of name = Option.map (fun e -> e.kind) (find name)

(* Critical path length in compute vertices: a makespan floor under
   unit compute cost, independent of p and S. *)
let span g =
  let depth = Array.make (Cdag.n_vertices g) 0 in
  let best = ref 0 in
  Array.iter
    (fun v ->
      if not (Cdag.is_input g v) then begin
        let d = 1 + Cdag.fold_pred g v (fun acc u -> max acc depth.(u)) 0 in
        depth.(v) <- d;
        if d > !best then best := d
      end)
    (Dmc_cdag.Topo.order g);
  !best

let g_cost = 1

(* The ladder runner of {!Bounds.governed_row}: each rung gets a
   fresh budget so a starved rung never starves its fallback, and the
   first rung that succeeds wins the row. *)
let row ?timeout ?node_budget ?(samples = 64) g ~p ~s engine =
  if p <= 0 then invalid_arg "Mp_bounds.row: p must be positive";
  if s <= 0 then invalid_arg "Mp_bounds.row: s must be positive";
  let floor = Bounds.io_floor g in
  let kind =
    match kind_of engine with
    | Some k -> k
    | None -> invalid_arg ("Mp_bounds.row: unknown engine " ^ engine)
  in
  let run_ladder = Bounds.run_ladder ?timeout ?node_budget ~engine ~kind in
  let floor_rung = ("floor", fun _ -> floor) in
  (* IO_mp(p, S) >= IO_1(p * S): the pooled-memory simulation, over
     the sequential wavefront ladder's shared rungs. *)
  let comm_lb_rungs =
    List.map
      (fun (rung, seq_lb) ->
        ( rung,
          fun b ->
            Parallel_bounds.mp_comm_from_sequential ~p ~seq_lb:(seq_lb b) ~s
            |> max floor ))
      (Bounds.wavefront_rungs ~samples g)
  in
  let max_indeg =
    Cdag.fold_vertices g
      (fun acc v ->
        if Cdag.is_input g v then acc else max acc (Cdag.in_degree g v))
      0
  in
  let work = Cdag.n_compute g in
  let time_lb ~comm_lb =
    Parallel_bounds.mp_time_lower ~p ~g_cost ~work ~span:(span g) ~comm_lb
  in
  let replay_makespan moves =
    match Mp_game.run ~g_cost g ~p ~s moves with
    | Ok stats -> stats.Mp_game.makespan
    | Error e ->
        Budget.internal_error ~where:"Mp_bounds"
          "schedule rejected at step %d: %s" e.Mp_game.step e.Mp_game.reason
  in
  match engine with
  | "mp-comm-lb" -> run_ladder (comm_lb_rungs @ [ floor_rung ])
  | "mp-comm-ub" ->
      run_ladder
        [
          ( "belady",
            fun b ->
              Strategy.mp_io ?budget:b ~policy:Strategy.Belady g ~p ~s );
          ( "trivial",
            fun _ ->
              if s >= max_indeg + 1 then Strategy.mp_trivial_io g
              else failwith "Mp_bounds: S too small for the trivial schedule" );
        ]
  | "mp-time-lb" ->
      run_ladder
        (List.map
           (fun (rung, comm_lb) -> (rung, fun b -> time_lb ~comm_lb:(comm_lb b)))
           comm_lb_rungs
        @ [ ("floor", fun _ -> time_lb ~comm_lb:floor) ])
  | "mp-time-ub" ->
      run_ladder
        [
          ( "belady",
            fun b ->
              replay_makespan
                (Strategy.mp_schedule ?budget:b ~policy:Strategy.Belady g ~p ~s)
          );
          ( "trivial",
            fun _ ->
              if s >= max_indeg + 1 then
                replay_makespan (Strategy.mp_trivial g ~p)
              else failwith "Mp_bounds: S too small for the trivial schedule" );
        ]
  | "pc-io-lb" -> run_ladder [ floor_rung ]
  | "pc-io-ub" ->
      run_ladder
        [
          ( "belady",
            fun b -> Strategy.pc_io ?budget:b ~policy:Strategy.Belady g ~s );
          ( "trivial",
            fun _ ->
              if s >= 2 then Strategy.trivial_io g
              else failwith "Mp_bounds: S too small for the pc schedule" );
        ]
  | _ -> assert false (* kind_of validated the name above *)

(* Supervisor-side terminal rung for a lost worker, mirroring
   {!Bounds.degraded_row}: lower engines fall to their floors, upper
   engines to the trivial schedule when [s] admits one. *)
let degraded_row g ~p ~s ~engine ~failure ~elapsed =
  let kind =
    match kind_of engine with
    | Some k -> k
    | None -> invalid_arg ("Mp_bounds.degraded_row: unknown engine " ^ engine)
  in
  let attempts = [ ("worker", failure) ] in
  let mk value rung = { Bounds.engine; kind; value; rung; attempts; elapsed } in
  let max_indeg =
    Cdag.fold_vertices g
      (fun acc v ->
        if Cdag.is_input g v then acc else max acc (Cdag.in_degree g v))
      0
  in
  let floor = Bounds.io_floor g in
  match engine with
  | "mp-comm-lb" | "pc-io-lb" -> mk (Some floor) "floor"
  | "mp-time-lb" ->
      mk
        (Some
           (Parallel_bounds.mp_time_lower ~p ~g_cost ~work:(Cdag.n_compute g)
              ~span:(span g) ~comm_lb:floor))
        "floor"
  | "mp-comm-ub" ->
      if s >= max_indeg + 1 then mk (Some (Strategy.mp_trivial_io g)) "trivial"
      else mk None "-"
  | "mp-time-ub" ->
      if s >= max_indeg + 1 then
        match Mp_game.run ~g_cost g ~p ~s (Strategy.mp_trivial g ~p) with
        | Ok stats -> mk (Some stats.Mp_game.makespan) "trivial"
        | Error _ -> mk None "-"
      else mk None "-"
  | "pc-io-ub" ->
      if s >= 2 then mk (Some (Strategy.trivial_io g)) "trivial"
      else mk None "-"
  | _ -> assert false
