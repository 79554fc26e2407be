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

  let min_balanced_horizontal ?budget ?slack g ~procs =
    run ?budget (fun () ->
        Optimal.min_balanced_horizontal ?budget ?slack g ~procs)

  let span_lb ?budget ?max_nodes g ~s =
    run ?budget (fun () -> Span.lower_bound ?budget ?max_nodes g ~s)

  let partition_lb ?budget ?max_nodes g ~s =
    run ?budget (fun () -> Spartition.lower_bound_exact ?budget ?max_nodes g ~s)

  let partition_u_lb ?budget g ~s =
    run ?budget (fun () -> Spartition.lower_bound_u ?budget g ~s)

  let strategy_io ?budget ?policy ?order g ~s =
    run ?budget (fun () -> Strategy.io ?budget ?policy ?order g ~s)
end

type kind = Lower | Upper | Exact

let kind_to_string = function Lower -> "lb" | Upper -> "ub" | Exact -> "exact"

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

let governed_engines =
  [
    ("floor", Lower);
    ("wavefront", Lower);
    ("partition-h", Lower);
    ("partition-u", Lower);
    ("span", Lower);
    ("optimal", Exact);
    ("belady", Upper);
    ("lru", Upper);
  ]

let governed_max_indeg g =
  Cdag.fold_vertices g
    (fun acc v ->
      if Cdag.is_input g v then acc else max acc (Cdag.in_degree g v))
    0

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

let wavefront_rungs ?samples g =
  let l = lazy (Wavefront.ladder ?samples g) in
  [
    ("exact", fun b ~s -> Wavefront.exact_rung ?budget:b (Lazy.force l) ~s);
    ("sampled", fun b ~s -> Wavefront.sampled_rung ?budget:b (Lazy.force l) ~s);
  ]

let governed_row ?timeout ?node_budget ?(samples = 64) ?wavefront g ~s engine =
  let floor = io_floor g in
  let run_ladder engine kind = run_ladder ?timeout ?node_budget ~engine ~kind in
  let floor_rung = ("floor", fun _ -> floor) in
  let wavefront_ladder () =
    run_ladder "wavefront" Lower
      (List.map (fun (rung, f) -> (rung, fun b -> f b ~s)) (wavefront_rungs ~samples g)
      @ [ floor_rung ])
  in
  (* The wavefront's achieved value is the middle rung of every other
     lower-bound ladder (it is a sound lower bound for the same
     quantity).  [analyze_governed] precomputes it once and passes it
     in; an isolated worker computing a single row derives it on
     demand, which is value-deterministic (fixed sampler seed) even if
     the work is repeated. *)
  let wavefront_value =
    lazy
      (match wavefront with
      | Some v -> v
      | None -> (
          match (wavefront_ladder ()).value with Some v -> v | None -> floor))
  in
  let wf_rung = ("wavefront", fun _ -> Lazy.force wavefront_value) in
  let lb_ladder name exact_fn =
    run_ladder name Lower [ ("exact", exact_fn); wf_rung; floor_rung ]
  in
  (* The trivial schedule only exists when every vertex's operands fit
     beside it, so the upper-bound ladder's last rung still has a
     precondition. *)
  let max_indeg = governed_max_indeg g in
  let trivial_rung =
    ( "trivial",
      fun _ ->
        if s >= max_indeg + 1 then Strategy.trivial_io g
        else failwith "Bounds: S too small for the trivial schedule" )
  in
  match engine with
  | "floor" -> run_ladder "floor" Lower [ ("exact", fun _ -> floor) ]
  | "wavefront" -> wavefront_ladder ()
  | "partition-h" ->
      lb_ladder "partition-h" (fun b -> Spartition.lower_bound_exact ?budget:b g ~s)
  | "partition-u" ->
      lb_ladder "partition-u" (fun b -> Spartition.lower_bound_u ?budget:b g ~s)
  | "span" -> lb_ladder "span" (fun b -> Span.lower_bound ?budget:b g ~s)
  | "optimal" ->
      run_ladder "optimal" Exact
        [ ("exact", fun b -> Optimal.rbw_io ?budget:b g ~s); wf_rung; floor_rung ]
  | "belady" ->
      run_ladder "belady" Upper
        [
          ("exact", fun b -> Strategy.io ?budget:b ~policy:Strategy.Belady g ~s);
          trivial_rung;
        ]
  | "lru" ->
      run_ladder "lru" Upper
        [
          ("exact", fun b -> Strategy.io ?budget:b ~policy:Strategy.Lru g ~s);
          trivial_rung;
        ]
  | other -> invalid_arg ("Bounds.governed_row: unknown engine " ^ other)

let degraded_row g ~s ~engine ~kind ~failure ~elapsed =
  let attempts = [ ("worker", failure) ] in
  match kind with
  | Lower | Exact ->
      {
        engine;
        kind;
        value = Some (io_floor g);
        rung = "floor";
        attempts;
        elapsed;
      }
  | Upper ->
      if s >= governed_max_indeg g + 1 then
        {
          engine;
          kind;
          value = Some (Strategy.trivial_io g);
          rung = "trivial";
          attempts;
          elapsed;
        }
      else { engine; kind; value = None; rung = "-"; attempts; elapsed }

let assemble_governed g ~s rows =
  let best_lb =
    List.fold_left
      (fun acc r ->
        match (r.kind, r.value) with
        | (Lower | Exact), Some v -> max acc v
        | _ -> acc)
      0 rows
  in
  let best_ub =
    List.fold_left
      (fun acc r ->
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
  let wavefront_row = governed_row ?timeout ?node_budget ~samples g ~s "wavefront" in
  let wavefront_value =
    match wavefront_row.value with Some v -> v | None -> io_floor g
  in
  let rows =
    List.map
      (fun (name, _) ->
        if name = "wavefront" then wavefront_row
        else
          governed_row ?timeout ?node_budget ~samples ~wavefront:wavefront_value
            g ~s name)
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
