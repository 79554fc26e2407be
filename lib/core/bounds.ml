module Cdag = Dmc_cdag.Cdag

type report = {
  s : int;
  n_vertices : int;
  n_edges : int;
  io_floor : int;
  wavefront_lb : int;
  partition_lb : int option;
  partition_u_lb : int option;
  span_lb : int option;
  best_lb : int;
  belady_ub : int;
  lru_ub : int;
  trivial_ub : int;
  optimal_io : int option;
}

let io_floor g =
  let stored_outputs =
    List.length (List.filter (fun v -> not (Cdag.is_input g v)) (Cdag.outputs g))
  in
  Cdag.n_inputs g + stored_outputs

let analyze ?(exact_partition_limit = 9) ?(optimal_limit = 0) g ~s =
  let floor = io_floor g in
  let wavefront_lb = Wavefront.lower_bound g ~s in
  let small_enough = Cdag.n_compute g <= exact_partition_limit in
  let partition_lb =
    if small_enough then
      match Spartition.lower_bound_exact g ~s with
      | lb -> Some lb
      | exception Optimal.Too_large _ -> None
    else None
  in
  let partition_u_lb =
    if Cdag.n_compute g <= 22 && Cdag.n_vertices g <= 62 then
      match Spartition.lower_bound_u g ~s with
      | lb -> Some lb
      | exception Optimal.Too_large _ -> None
    else None
  in
  let span_lb =
    if Cdag.n_vertices g <= 16 then
      match Span.lower_bound g ~s with
      | lb -> Some lb
      | exception Optimal.Too_large _ -> None
    else None
  in
  let optimal_io =
    if optimal_limit > 0 && Cdag.n_vertices g <= min optimal_limit 20 then
      match Optimal.rbw_io g ~s with
      | io -> Some io
      | exception Optimal.Too_large _ -> None
    else None
  in
  let candidates =
    floor :: wavefront_lb
    :: List.filter_map Fun.id [ partition_lb; partition_u_lb; span_lb ]
  in
  {
    s;
    n_vertices = Cdag.n_vertices g;
    n_edges = Cdag.n_edges g;
    io_floor = floor;
    wavefront_lb;
    partition_lb;
    partition_u_lb;
    span_lb;
    best_lb = List.fold_left max 0 candidates;
    belady_ub = Strategy.io ~policy:Strategy.Belady g ~s;
    lru_ub = Strategy.io ~policy:Strategy.Lru g ~s;
    trivial_ub = Strategy.trivial_io g;
    optimal_io;
  }

let pp_report ppf r =
  let pp_opt ppf = function
    | None -> Format.pp_print_string ppf "-"
    | Some x -> Format.pp_print_int ppf x
  in
  Format.fprintf ppf
    "@[<v>CDAG: %d vertices, %d edges, S = %d@,\
     lower bounds: floor = %d, wavefront = %d, partition-H = %a, partition-U = %a, span = %a -> best = %d@,\
     upper bounds: belady = %d, lru = %d, trivial = %d@,\
     optimal: %a@]"
    r.n_vertices r.n_edges r.s r.io_floor r.wavefront_lb pp_opt r.partition_lb
    pp_opt r.partition_u_lb pp_opt r.span_lb r.best_lb r.belady_ub r.lru_ub
    r.trivial_ub pp_opt r.optimal_io

let report_to_json r =
  let module J = Dmc_util.Json in
  J.Obj
    [
      ("s", J.Int r.s);
      ("n_vertices", J.Int r.n_vertices);
      ("n_edges", J.Int r.n_edges);
      ( "lower_bounds",
        J.Obj
          [
            ("io_floor", J.Int r.io_floor);
            ("wavefront", J.Int r.wavefront_lb);
            ("partition_h", J.opt (fun x -> J.Int x) r.partition_lb);
            ("partition_u", J.opt (fun x -> J.Int x) r.partition_u_lb);
            ("span", J.opt (fun x -> J.Int x) r.span_lb);
            ("best", J.Int r.best_lb);
          ] );
      ( "upper_bounds",
        J.Obj
          [
            ("belady", J.Int r.belady_ub);
            ("lru", J.Int r.lru_ub);
            ("trivial", J.Int r.trivial_ub);
          ] );
      ("optimal_io", J.opt (fun x -> J.Int x) r.optimal_io);
    ]

(* ------------------------------------------------------------------ *)
(* Result-typed engine API and governed (graceful-degradation)        *)
(* analysis.                                                          *)

module Budget = Dmc_util.Budget

type failure = Budget.failure =
  | Timeout
  | Budget_exhausted
  | Cancelled
  | Too_large of string
  | Invalid_input of string
  | Internal of string

module Engine = struct
  type 'a outcome = ('a, failure) result

  let run ?budget f =
    let go () =
      try Ok (f ()) with
      | Budget.Exhausted e -> Error e
      | Budget.Internal_error { where; details } ->
          Error (Internal (where ^ ": " ^ details))
      | Optimal.Too_large msg -> Error (Too_large msg)
      | Stack_overflow ->
          Error (Too_large "search recursion exceeded the OCaml stack")
      | Invalid_argument msg | Failure msg -> Error (Invalid_input msg)
    in
    match budget with
    | None -> go ()
    | Some b -> ( match Budget.check b with Some e -> Error e | None -> go ())

  let rbw_io ?budget ?max_states g ~s =
    run ?budget (fun () -> Optimal.rbw_io ?budget ?max_states g ~s)

  let rb_io ?budget ?max_states g ~s =
    run ?budget (fun () -> Optimal.rb_io ?budget ?max_states g ~s)

  let partition_lb ?budget ?max_nodes g ~s =
    run ?budget (fun () -> Spartition.lower_bound_exact ?budget ?max_nodes g ~s)
end

type kind = Lower | Upper | Exact

let kind_to_string = function Lower -> "lb" | Upper -> "ub" | Exact -> "exact"

type quantity = Seq | Mp_comm | Mp_time | Pc_io

let quantity_to_string = function
  | Seq -> "seq"
  | Mp_comm -> "mp-comm"
  | Mp_time -> "mp-time"
  | Pc_io -> "pc-io"

let reads_p = function Mp_comm | Mp_time -> true | Seq | Pc_io -> false

(* Where an engine's ladder reads the wavefront ladder's min-cuts. *)
type ladder_read = Never | First | Fallback

type ctx = {
  g : Cdag.t;
  p : int;
  s : int;
  samples : int;
  record : Wavefront.record option;
  floor : int Lazy.t;
  wavefront : int Lazy.t;
}

(* Defined before [row], so that an unannotated [r.kind] still means a
   row's kind. *)
type engine = {
  name : string;
  kind : kind;
  quantity : quantity;
  reads_ladder : ladder_read;
  doc : string;
  ladder : ctx -> (string * (Budget.t option -> int)) list;
}

type row = {
  engine : string;
  kind : kind;
  value : int option;
  rung : string;
  attempts : (string * failure) list;
  elapsed : float;
}

type governed = {
  gov_s : int;
  gov_n_vertices : int;
  gov_n_edges : int;
  gov_rows : row list;
  gov_best_lb : int;
  gov_best_ub : int option;
}

let failure_token = function
  | Timeout -> "timeout"
  | Budget_exhausted -> "budget"
  | Cancelled -> "cancelled"
  | Too_large _ -> "skipped"
  | Invalid_input _ -> "invalid"
  | Internal _ -> "internal"

let row_status r =
  match r.attempts with
  | [] -> "ok"
  | (_, first) :: _ -> (
      match r.value with
      | Some _ ->
          Printf.sprintf "%s(fallback=%s)" (failure_token first) r.rung
      | None -> failure_token first)

let c_ticks = Dmc_obs.Counter.make "budget.ticks"

(* Each ladder rung gets its own fresh budget: a rung that times out
   must not also starve its fallback.  The first rung that succeeds
   wins the row. *)
let run_ladder ?timeout ?node_budget ~engine ~kind rungs =
  let fresh_budget () =
    match (timeout, node_budget) with
    | None, None -> None
    | _ -> Some (Budget.create ?deadline:timeout ?nodes:node_budget ())
  in
  let t0 = Budget.now () in
  let rec go attempts = function
    | [] ->
        {
          engine;
          kind;
          value = None;
          rung = "-";
          attempts = List.rev attempts;
          elapsed = Budget.now () -. t0;
        }
    | (rung, f) :: rest -> (
        (* Terminal rungs (the I/O floor, the trivial schedule) are
           O(n) and exist precisely so a starved budget still yields a
           sound value — they run outside the budget.  The floor
           engine's own row is terminal in the same sense: its value
           is already computed, and budgeting it would let a fully
           expired deadline (the check races the clock even for a
           pure return) strip the one row that may never lose its
           value. *)
        let budget =
          if rung = "floor" || rung = "trivial" || engine = "floor" then None
          else fresh_budget ()
        in
        let outcome =
          Dmc_obs.Span.with_
            ~attrs:[ ("engine", engine); ("rung", rung) ]
            (engine ^ "/" ^ rung)
            (fun () ->
              let r = Engine.run ?budget (fun () -> f budget) in
              (match budget with
              | Some b ->
                  let spent = Budget.spent b in
                  Dmc_obs.Counter.add c_ticks spent;
                  Dmc_obs.Span.note "ticks" (string_of_int spent)
              | None -> ());
              (match r with
              | Ok _ -> Dmc_obs.Span.note "outcome" "ok"
              | Error e -> Dmc_obs.Span.note "outcome" (failure_token e));
              r)
        in
        match outcome with
        | Ok v ->
            {
              engine;
              kind;
              value = Some v;
              rung;
              attempts = List.rev attempts;
              elapsed = Budget.now () -. t0;
            }
        | Error e -> go ((rung, e) :: attempts) rest)
  in
  go [] rungs

let wavefront_rungs ?samples ?record g =
  let l = lazy (Wavefront.ladder ?samples ?record g) in
  [
    ("exact", fun b ~s -> Wavefront.exact_rung ?budget:b (Lazy.force l) ~s);
    ("sampled", fun b ~s -> Wavefront.sampled_rung ?budget:b (Lazy.force l) ~s);
  ]

(* ------------------------------------------------------------------ *)
(* The engine table: every engine's name, kind, quantity, doc line and *)
(* fallback ladder.                                                    *)

let floor_rung c = ("floor", fun _ -> Lazy.force c.floor)

let wavefront_ladder c =
  List.map
    (fun (rung, f) -> (rung, fun b -> f b ~s:c.s))
    (wavefront_rungs ~samples:c.samples ?record:c.record c.g)
  @ [ floor_rung c ]

(* The wavefront's achieved value is the middle rung of every other
   sequential lower-bound ladder: a sound lower bound for the same
   quantity. *)
let lb_ladder exact c =
  [ ("exact", exact c); ("wavefront", fun _ -> Lazy.force c.wavefront); floor_rung c ]

let max_in_degree g =
  Cdag.fold_vertices g
    (fun acc v ->
      if Cdag.is_input g v then acc else max acc (Cdag.in_degree g v))
    0

(* A trivial schedule only exists when its vertex fits in fast memory
   beside its operands, so an upper-bound ladder's last rung still has
   a precondition. *)
let trivial_rung ~fits ~msg f =
  ("trivial", fun _ -> if fits () then f () else failwith msg)

let operands_fit c () = c.s >= max_in_degree c.g + 1

let ub_ladder policy c =
  [
    ("exact", fun b -> Strategy.io ?budget:b ~policy c.g ~s:c.s);
    trivial_rung ~fits:(operands_fit c)
      ~msg:"Bounds: S too small for the trivial schedule" (fun () ->
        Strategy.trivial_io c.g);
  ]

(* IO_mp(p, S) >= IO_1(p * S): the pooled-memory simulation, over the
   sequential wavefront ladder's shared rungs. *)
let comm_lb_rungs c =
  List.map
    (fun (rung, seq_lb) ->
      ( rung,
        fun b ->
          Parallel_bounds.mp_comm_from_sequential ~p:c.p ~seq_lb:(seq_lb b)
            ~s:c.s
          |> max (Lazy.force c.floor) ))
    (wavefront_rungs ~samples:c.samples ?record:c.record c.g)

let g_cost = 1

let time_lb c ~comm_lb =
  Parallel_bounds.mp_time_lower ~p:c.p ~g_cost ~work:(Cdag.n_compute c.g)
    ~span:(Parallel_bounds.span c.g) ~comm_lb

let replay_makespan c moves =
  match Mp_game.run ~g_cost c.g ~p:c.p ~s:c.s moves with
  | Ok stats -> stats.Mp_game.makespan
  | Error e ->
      Budget.internal_error ~where:"Mp_bounds"
        "schedule rejected at step %d: %s" e.Mp_game.step e.Mp_game.reason

(* The mp/pc failure texts keep the prefix their rows have always
   carried. *)
let mp_trivial_msg = "Mp_bounds: S too small for the trivial schedule"

let engines =
  [
    { name = "floor"; kind = Lower; quantity = Seq; reads_ladder = Never;
      doc = "I/O floor: every input read + every non-input output written";
      ladder = (fun c -> [ ("exact", fun _ -> Lazy.force c.floor) ]) };
    { name = "wavefront"; kind = Lower; quantity = Seq; reads_ladder = First;
      doc = "min-cut wavefront bound (Lemma 2), exact then sampled";
      ladder = wavefront_ladder };
    { name = "partition-h"; kind = Lower; quantity = Seq; reads_ladder = Fallback;
      doc = "Lemma 1 with the exhaustive H(2S) partition count";
      ladder = lb_ladder (fun c b -> Spartition.lower_bound_exact ?budget:b c.g ~s:c.s) };
    { name = "partition-u"; kind = Lower; quantity = Seq; reads_ladder = Fallback;
      doc = "Corollary 1 with the exhaustive U(2S) vertex count";
      ladder = lb_ladder (fun c b -> Spartition.lower_bound_u ?budget:b c.g ~s:c.s) };
    { name = "span"; kind = Lower; quantity = Seq; reads_ladder = Fallback;
      doc = "Savage S-span lower bound";
      ladder = lb_ladder (fun c b -> Span.lower_bound ?budget:b c.g ~s:c.s) };
    { name = "optimal"; kind = Exact; quantity = Seq; reads_ladder = Fallback;
      doc = "exhaustive optimal-game search (tiny graphs, exact)";
      ladder = lb_ladder (fun c b -> Optimal.rbw_io ?budget:b c.g ~s:c.s) };
    { name = "belady"; kind = Upper; quantity = Seq; reads_ladder = Never;
      doc = "Belady-policy schedule: a certified upper bound";
      ladder = ub_ladder Strategy.Belady };
    { name = "lru"; kind = Upper; quantity = Seq; reads_ladder = Never;
      doc = "LRU-policy schedule: a certified upper bound";
      ladder = ub_ladder Strategy.Lru };
    { name = "mp-comm-lb"; kind = Lower; quantity = Mp_comm; reads_ladder = First;
      doc =
        "communication LB: sequential wavefront bound at capacity p*S \
         (one processor with the pooled fast memory simulates the game)";
      ladder = (fun c -> comm_lb_rungs c @ [ floor_rung c ]) };
    { name = "mp-comm-ub"; kind = Upper; quantity = Mp_comm; reads_ladder = Never;
      doc =
        "communication UB: I/O of a valid p-processor Belady schedule \
         (cross-processor values travel store -> load through slow memory)";
      ladder =
        (fun c ->
          [
            ( "belady",
              fun b ->
                Strategy.mp_io ?budget:b ~policy:Strategy.Belady c.g ~p:c.p ~s:c.s );
            trivial_rung ~fits:(operands_fit c) ~msg:mp_trivial_msg (fun () ->
                Strategy.mp_trivial_io c.g);
          ]) };
    { name = "mp-time-lb"; kind = Lower; quantity = Mp_time; reads_ladder = First;
      doc =
        "makespan LB: max of the critical path and the busiest \
         processor's ceil-share of compute + g*comm work";
      ladder =
        (fun c ->
          List.map
            (fun (rung, comm_lb) -> (rung, fun b -> time_lb c ~comm_lb:(comm_lb b)))
            (comm_lb_rungs c)
          @ [ ("floor", fun _ -> time_lb c ~comm_lb:(Lazy.force c.floor)) ]) };
    { name = "mp-time-ub"; kind = Upper; quantity = Mp_time; reads_ladder = Never;
      doc =
        "makespan UB: list-scheduling makespan of the replayed \
         p-processor Belady schedule (compute = 1, I/O = g)";
      ladder =
        (fun c ->
          [
            ( "belady",
              fun b ->
                (Strategy.mp_stats ?budget:b ~policy:Strategy.Belady c.g ~p:c.p
                   ~s:c.s)
                  .makespan );
            trivial_rung ~fits:(operands_fit c) ~msg:mp_trivial_msg (fun () ->
                replay_makespan c (Strategy.mp_trivial c.g ~p:c.p));
          ]) };
    { name = "pc-io-lb"; kind = Lower; quantity = Pc_io; reads_ladder = Never;
      doc =
        "partial-computation I/O LB: the I/O floor (inputs read + \
         outputs written; S-partition arguments do not survive partial \
         recomputation)";
      ladder = (fun c -> [ floor_rung c ]) };
    { name = "pc-io-ub"; kind = Upper; quantity = Pc_io; reads_ladder = Never;
      doc =
        "partial-computation I/O UB: I/O of a valid Begin/Absorb/Finish \
         Belady schedule (two red pebbles cover any in-degree)";
      ladder =
        (fun c ->
          [
            ( "belady",
              fun b -> Strategy.pc_io ?budget:b ~policy:Strategy.Belady c.g ~s:c.s );
            (* Begin/Absorb/Finish needs two red pebbles at any in-degree *)
            trivial_rung ~fits:(fun () -> c.s >= 2)
              ~msg:"Mp_bounds: S too small for the pc schedule" (fun () ->
                Strategy.trivial_io c.g);
          ]) };
  ]

let find name = List.find_opt (fun e -> e.name = name) engines

let governed_engines =
  List.filter_map
    (fun e -> if e.quantity = Seq then Some (e.name, e.kind) else None)
    engines

let find_exn name =
  match find name with
  | Some e -> e
  | None -> invalid_arg ("Bounds: unknown engine " ^ name)

(* When no caller passed the wavefront row's value in, a row derives it
   on demand by running the wavefront ladder; that is
   value-deterministic (fixed sampler seed) even if the work is
   repeated. *)
let context ?timeout ?node_budget ?wavefront ?record ~samples ~p g ~s =
  let rec c =
    {
      g;
      p;
      s;
      samples;
      record;
      floor = lazy (io_floor g);
      wavefront =
        lazy
          (match wavefront with
          | Some v -> v
          | None -> (
              match
                (run_ladder ?timeout ?node_budget ~engine:"wavefront"
                   ~kind:Lower (wavefront_ladder c))
                  .value
              with
              | Some v -> v
              | None -> Lazy.force c.floor));
    }
  in
  c

let row ?timeout ?node_budget ?(samples = 64) ?wavefront ?record ?(p = 1) g ~s
    name =
  let e = find_exn name in
  if p < 1 then invalid_arg "Bounds.row: p must be positive";
  if s < 1 then invalid_arg "Bounds.row: s must be positive";
  (match record with
  | Some r when not (Wavefront.record_fits r g) ->
      invalid_arg "Bounds.row: the wavefront record does not fit the graph"
  | _ -> ());
  run_ladder ?timeout ?node_budget ~engine:name ~kind:e.kind
    (e.ladder
       (context ?timeout ?node_budget ?wavefront ?record ~samples ~p g ~s))

let engine_reads_p name =
  match find name with Some e -> reads_p e.quantity | None -> false

let takes_record name =
  match find name with Some e -> e.reads_ladder <> Never | None -> false

let wants_record ?node_budget names =
  node_budget <> None
  && List.exists
       (fun name ->
         match find name with Some e -> e.reads_ladder = First | None -> false)
       names

(* The rows' own rung budgets, outside [run_ladder]: no rung span, no
   [budget.ticks]. *)
let wavefront_record ?timeout ?node_budget ?samples g =
  let l = Wavefront.ladder ?samples g in
  let rung f =
    let budget = Budget.create ?deadline:timeout ?nodes:node_budget () in
    Result.is_ok (Engine.run ~budget (fun () -> f budget))
  in
  if not (rung (fun b -> Wavefront.exact_rung ~budget:b l ~s:1)) then
    ignore (rung (fun b -> Wavefront.sampled_rung ~budget:b l ~s:1) : bool);
  Wavefront.record l

(* The last rung of every ladder is its O(n) terminal rung: the floor
   of a lower-bound ladder, the trivial schedule of an upper-bound
   one. *)
let degraded_row ?(p = 1) g ~s ~engine ~failure ~elapsed =
  let e = find_exn engine in
  let _, last =
    List.hd (List.rev (e.ladder (context ~samples:64 ~p g ~s)))
  in
  let value = Result.to_option (Engine.run (fun () -> last None)) in
  let rung =
    match (value, e.kind) with
    | None, _ -> "-"
    | Some _, Upper -> "trivial"
    | Some _, (Lower | Exact) -> "floor"
  in
  { engine; kind = e.kind; value; rung; attempts = [ ("worker", failure) ]; elapsed }

let assemble_governed g ~s rows =
  let best_lb =
    List.fold_left
      (fun acc (r : row) ->
        match (r.kind, r.value) with
        | (Lower | Exact), Some v -> max acc v
        | _ -> acc)
      0 rows
  in
  let best_ub =
    List.fold_left
      (fun acc (r : row) ->
        let candidate =
          match (r.kind, r.value) with
          | Upper, Some v -> Some v
          | Exact, Some v when r.rung = "exact" -> Some v
          | _ -> None
        in
        match (acc, candidate) with
        | None, c -> c
        | Some a, Some c -> Some (min a c)
        | (Some _ as a), None -> a)
      None rows
  in
  {
    gov_s = s;
    gov_n_vertices = Cdag.n_vertices g;
    gov_n_edges = Cdag.n_edges g;
    gov_rows = rows;
    gov_best_lb = best_lb;
    gov_best_ub = best_ub;
  }

let analyze_governed ?timeout ?node_budget ?(samples = 64) g ~s =
  Dmc_obs.Span.with_
    ~attrs:[ ("s", string_of_int s); ("n", string_of_int (Cdag.n_vertices g)) ]
    "bounds.analyze_governed"
  @@ fun () ->
  (* The wavefront row runs first; its achieved value is reused as the
     middle rung of every other lower-bound ladder. *)
  let wavefront_row = row ?timeout ?node_budget ~samples g ~s "wavefront" in
  let wavefront_value =
    match wavefront_row.value with Some v -> v | None -> io_floor g
  in
  let rows =
    List.map
      (fun (name, _) ->
        if name = "wavefront" then wavefront_row
        else
          row ?timeout ?node_budget ~samples ~wavefront:wavefront_value g ~s
            name)
      governed_engines
  in
  assemble_governed g ~s rows

let kind_of_string = function
  | "lb" -> Some Lower
  | "ub" -> Some Upper
  | "exact" -> Some Exact
  | _ -> None

let row_to_json r =
  let module J = Dmc_util.Json in
  J.Obj
    [
      ("engine", J.String r.engine);
      ("kind", J.String (kind_to_string r.kind));
      ("value", J.opt (fun v -> J.Int v) r.value);
      ("status", J.String (row_status r));
      ("rung", J.String r.rung);
      ( "failed_rungs",
        J.List
          (List.map
             (fun (rung, e) ->
               J.Obj
                 [
                   ("rung", J.String rung);
                   ("failure", J.String (Budget.failure_to_string e));
                 ])
             r.attempts) );
      ("elapsed_s", J.Float r.elapsed);
    ]

let row_of_json json =
  let module J = Dmc_util.Json in
  let ( let* ) = Option.bind in
  let* engine = Option.bind (J.mem json "engine") J.as_string in
  let* kind = Option.bind (Option.bind (J.mem json "kind") J.as_string) kind_of_string in
  let value =
    match J.mem json "value" with Some j -> J.as_int j | None -> None
  in
  let* rung = Option.bind (J.mem json "rung") J.as_string in
  let* elapsed = Option.bind (J.mem json "elapsed_s") J.as_float in
  let* attempts =
    match Option.bind (J.mem json "failed_rungs") J.as_list with
    | None -> None
    | Some l ->
        List.fold_left
          (fun acc entry ->
            let* acc = acc in
            let* rung = Option.bind (J.mem entry "rung") J.as_string in
            let* failure =
              Option.bind
                (Option.bind (J.mem entry "failure") J.as_string)
                Budget.failure_of_string
            in
            Some ((rung, failure) :: acc))
          (Some []) l
        |> Option.map List.rev
  in
  Some { engine; kind; value; rung; attempts; elapsed }

let pp_governed ppf gr =
  let module T = Dmc_util.Table in
  let t = T.create ~headers:[ "engine"; "kind"; "value"; "status"; "rung"; "time" ] in
  T.set_align t [ T.Left; T.Left; T.Right; T.Left; T.Left; T.Right ];
  List.iter
    (fun r ->
      T.add_row t
        [
          r.engine;
          kind_to_string r.kind;
          (match r.value with Some v -> string_of_int v | None -> "-");
          row_status r;
          r.rung;
          Printf.sprintf "%.2fs" r.elapsed;
        ])
    gr.gov_rows;
  Format.fprintf ppf "CDAG: %d vertices, %d edges, S = %d@." gr.gov_n_vertices
    gr.gov_n_edges gr.gov_s;
  Format.pp_print_string ppf (T.render t);
  Format.fprintf ppf "best lower bound = %d" gr.gov_best_lb;
  (match gr.gov_best_ub with
  | Some ub -> Format.fprintf ppf ", best upper bound = %d" ub
  | None -> ());
  Format.fprintf ppf "@."

let governed_to_json gr =
  let module J = Dmc_util.Json in
  let row_json = row_to_json in
  J.Obj
    [
      ("s", J.Int gr.gov_s);
      ("n_vertices", J.Int gr.gov_n_vertices);
      ("n_edges", J.Int gr.gov_n_edges);
      ("rows", J.List (List.map row_json gr.gov_rows));
      ("best_lb", J.Int gr.gov_best_lb);
      ("best_ub", J.opt (fun v -> J.Int v) gr.gov_best_ub);
    ]

let certify_wavefront ?(samples = 64) g ~s =
  ignore s;
  let part, _ = Dmc_cdag.Subgraph.drop_inputs g in
  let stripped = part.Dmc_cdag.Subgraph.graph in
  let n = Cdag.n_vertices stripped in
  if n = 0 then true
  else begin
    let candidates =
      if n <= Wavefront.exact_threshold then Array.init n Fun.id
      else begin
        let rng = Dmc_util.Rng.create 0x5eed in
        Array.init samples (fun _ -> Dmc_util.Rng.int rng n)
      end
    in
    match Wavefront.wmax_over stripped ~at_least:0 candidates with
    | _, None -> true
    | best_w, Some best ->
        let witness = Wavefront.witness stripped best in
        Wavefront.verify_witness stripped witness
        && (witness.Wavefront.paths = [] || List.length witness.Wavefront.paths = best_w)
  end
