module J = Dmc_util.Json
module P = Experiment.P
module Bounds = Dmc_core.Bounds
module Mp_game = Dmc_core.Mp_game
module Strategy = Dmc_core.Strategy
module Wavefront = Dmc_core.Wavefront
module Workload = Dmc_gen.Workload

(* Time/communication trade-off curves for the multi-processor game:
   sweep the processor count at a fixed per-processor capacity S and
   put the measured communication of a replayed (hence valid) schedule
   between the simulation lower bound and itself.  The interesting
   structure is in the two directions: the lower bound IO_1(p*S) can
   only fall as p grows (pooled memory), while the measured
   communication of an actual p-processor execution typically rises
   (values cross processor boundaries through slow memory). *)

let ps = [ 1; 2; 4; 8 ]

type point = {
  p : int;
  comm_lb : int;  (** [mp-comm-lb]: the pooled-memory simulation bound *)
  measured : int;  (** I/O of the replayed [Strategy.mp_schedule] *)
  time_lb : int;  (** [mp-time-lb]: max of span and work/comm share *)
  time_ub : int;  (** makespan of the same replayed schedule *)
}

type curve = {
  workload : string;  (** registry spec *)
  s : int;
  seq_lb : int;  (** single-processor wavefront/floor bound at S *)
  seq_ub : int;  (** single-processor Belady I/O at S *)
  points : point list;
}

let engine_value g ~p ~s engine =
  let row = Bounds.row ~p g ~s engine in
  match row.Bounds.value with
  | Some v -> v
  | None ->
      failwith
        (Printf.sprintf "tradeoff: %s produced no value at p=%d s=%d" engine p
           s)

let measure ~spec ~s () =
  let g = Workload.parse_exn spec in
  let seq_lb = max (Bounds.io_floor g) (Wavefront.lower_bound g ~s) in
  let seq_ub = Strategy.io ~policy:Strategy.Belady g ~s in
  let points =
    List.map
      (fun p ->
        let moves = Strategy.mp_schedule ~policy:Strategy.Belady g ~p ~s in
        let stats =
          match Mp_game.run g ~p ~s moves with
          | Ok stats -> stats
          | Error e ->
              failwith
                (Printf.sprintf
                   "tradeoff: schedule for %s rejected at step %d: %s" spec
                   e.Mp_game.step e.Mp_game.reason)
        in
        {
          p;
          comm_lb = engine_value g ~p ~s "mp-comm-lb";
          measured = stats.Mp_game.io;
          time_lb = engine_value g ~p ~s "mp-time-lb";
          time_ub = stats.Mp_game.makespan;
        })
      ps
  in
  { workload = spec; s; seq_lb; seq_ub; points }

let curve_to_json c =
  J.Obj
    [
      ("workload", J.String c.workload);
      ("s", J.Int c.s);
      ("seq_lb", J.Int c.seq_lb);
      ("seq_ub", J.Int c.seq_ub);
      ( "points",
        J.List
          (List.map
             (fun pt ->
               J.Obj
                 [
                   ("p", J.Int pt.p);
                   ("comm_lb", J.Int pt.comm_lb);
                   ("measured", J.Int pt.measured);
                   ("time_lb", J.Int pt.time_lb);
                   ("time_ub", J.Int pt.time_ub);
                 ])
             c.points) );
    ]

let curve_of_json payload =
  {
    workload = P.str payload "workload";
    s = P.int payload "s";
    seq_lb = P.int payload "seq_lb";
    seq_ub = P.int payload "seq_ub";
    points =
      List.map
        (fun pt ->
          {
            p = P.int pt "p";
            comm_lb = P.int pt "comm_lb";
            measured = P.int pt "measured";
            time_lb = P.int pt "time_lb";
            time_ub = P.int pt "time_ub";
          })
        (P.objs payload "points");
  }

let parts =
  [
    {
      Experiment.part = "jacobi1d";
      run = (fun () -> curve_to_json (measure ~spec:"jacobi1d:32,8" ~s:8 ()));
    };
    {
      Experiment.part = "fft";
      run = (fun () -> curve_to_json (measure ~spec:"fft:5" ~s:6 ()));
    };
    {
      Experiment.part = "tree";
      run = (fun () -> curve_to_json (measure ~spec:"tree:64" ~s:4 ()));
    };
  ]

let sandwich_ok c =
  List.for_all
    (fun pt -> pt.comm_lb <= pt.measured && pt.time_lb <= pt.time_ub)
    c.points

let lb_monotone c =
  let rec go = function
    | a :: (b :: _ as rest) -> b.comm_lb <= a.comm_lb && go rest
    | _ -> true
  in
  go c.points

let p1_agrees c =
  match c.points with
  | { p = 1; comm_lb; measured; _ } :: _ ->
      comm_lb = c.seq_lb && measured = c.seq_ub
  | _ -> false

let doc_of_parts payloads =
  let curves = List.map curve_of_json payloads in
  let blocks_of c =
    [
      Doc.Facts
        [
          [
            Doc.fact "workload" c.workload;
            Doc.fact "S" (string_of_int c.s);
            Doc.fact "sequential lb" (string_of_int c.seq_lb);
            Doc.fact "sequential ub" (string_of_int c.seq_ub);
          ];
        ];
      Doc.Curve
        {
          Doc.curve = c.workload ^ " communication";
          shape = "lb ~ IO_1(pS), measured rises with p";
          xlabel = "p";
          points =
            List.map
              (fun pt ->
                { Doc.x = pt.p; lb = float_of_int pt.comm_lb; ub = pt.measured })
              c.points;
        };
      Doc.Curve
        {
          Doc.curve = c.workload ^ " makespan";
          shape = "lb ~ max(span, (work + g comm)/p)";
          xlabel = "p";
          points =
            List.map
              (fun pt ->
                { Doc.x = pt.p; lb = float_of_int pt.time_lb; ub = pt.time_ub })
              c.points;
        };
      Doc.check
        (Printf.sprintf "comm lb <= measured and time lb <= makespan for %s"
           c.workload)
        (sandwich_ok c);
      Doc.check
        (Printf.sprintf "comm lb non-increasing in p for %s" c.workload)
        (lb_monotone c);
      Doc.check
        (Printf.sprintf "p=1 agrees with the sequential bounds for %s"
           c.workload)
        (p1_agrees c);
    ]
  in
  {
    Doc.name = "tradeoff";
    blocks =
      (Doc.Section "time/communication trade-offs in the multi-processor game"
      :: List.concat_map blocks_of curves)
      @ [ Doc.Text "\n" ];
  }
