module Bitset = Dmc_util.Bitset
module Budget = Dmc_util.Budget
module Rng = Dmc_util.Rng
module Cdag = Dmc_cdag.Cdag
module Reach = Dmc_cdag.Reach
module Subgraph = Dmc_cdag.Subgraph
module Vertex_cut = Dmc_flow.Vertex_cut

let c_mincut = Dmc_obs.Counter.make "wavefront.mincut_calls"
let h_cut_size = Dmc_obs.Histogram.make "wavefront.cut_size"

(* The terminal sets of [x]'s min-cut query, [{x} ∪ Anc(x)] and
   [Desc(x)], for its Menger witness; [None] when [x] has no
   descendants, so that its wavefront is just [{x}].  A vertex without
   successors has none, which needs no search. *)
let terminals g x =
  if Cdag.out_degree g x = 0 then None
  else
    let desc = Reach.descendants g x in
    Some (x :: Bitset.elements (Reach.ancestors g x), Bitset.elements desc)

(* One min-cut query on [g]'s lazily prepared split network, its
   terminal sets marked by the kernel itself. *)
let cut_of ?budget g prepared x =
  Dmc_obs.Counter.incr c_mincut;
  let size =
    if Cdag.out_degree g x = 0 then 1
    else Vertex_cut.wavefront_cut ?budget (Lazy.force prepared) x
  in
  Dmc_obs.Histogram.observe h_cut_size size;
  size

let min_wavefront ?budget g = cut_of ?budget g (lazy (Vertex_cut.prepare g))

(* Two cuts that need no flow: the source set [{x} ∪ Anc(x)] itself,
   and the vertices outside [Desc(x)] with an edge into it, through
   which every path into [Desc(x)] must enter. *)
let cut_ceiling g x =
  if Cdag.out_degree g x = 0 then 1
  else begin
    let desc = Reach.descendants g x in
    let entry = Bitset.create (Cdag.n_vertices g) in
    Bitset.iter
      (fun v ->
        Cdag.iter_pred g v (fun u -> if not (Bitset.mem desc u) then Bitset.add entry u))
      desc;
    min (1 + Bitset.cardinal (Reach.ancestors g x)) (Bitset.cardinal entry)
  end

(* Visit the distinct vertices of [vs] in descending ceiling order,
   ties by first position, and flow only while a ceiling beats the best
   value so far: no later vertex can then raise it. *)
let wmax_over g ~at_least vs =
  let seen = Bitset.create (Cdag.n_vertices g) in
  let vs =
    Array.fold_left
      (fun acc x ->
        if Bitset.mem seen x then acc
        else begin
          Bitset.add seen x;
          x :: acc
        end)
      [] vs
    |> List.rev |> Array.of_list
  in
  let ceiling = Array.map (cut_ceiling g) vs in
  let order = Array.init (Array.length vs) Fun.id in
  Array.stable_sort (fun i j -> compare ceiling.(j) ceiling.(i)) order;
  let wavefront = min_wavefront g in
  let rec visit k best arg =
    if k = Array.length order || ceiling.(order.(k)) <= best then (best, arg)
    else
      let x = vs.(order.(k)) in
      let w = wavefront x in
      if w > best then visit (k + 1) w (Some x) else visit (k + 1) best arg
  in
  visit 0 at_least None

let sweep_exact g ~at_least =
  Dmc_obs.Span.with_
    ~attrs:[ ("n", string_of_int (Cdag.n_vertices g)) ]
    "wavefront.wmax_exact"
    (fun () -> wmax_over g ~at_least (Array.init (Cdag.n_vertices g) Fun.id))

(* Every draw is taken from [rng] up front, so a generator shared
   across calls stays in step however many flows run. *)
let sweep_sampled rng g ~samples ~at_least =
  let n = Cdag.n_vertices g in
  if n = 0 then (at_least, None)
  else
    Dmc_obs.Span.with_
      ~attrs:[ ("n", string_of_int n); ("samples", string_of_int samples) ]
      "wavefront.wmax_sampled"
      (fun () ->
        wmax_over g ~at_least (Array.init (max 0 samples) (fun _ -> Rng.int rng n)))

let wmax_exact g = fst (sweep_exact g ~at_least:0)

let wmax_sampled rng g ~samples = fst (sweep_sampled rng g ~samples ~at_least:0)

(* Anytime sampling for the fallback ladder: draw until the budget
   runs out and keep the best bound found so far.  Sound because
   Lemma 2 holds for every vertex, so a partial sweep only weakens the
   bound, never invalidates it.  [wavefront] answers one vertex of an
   [n]-vertex graph. *)
let sample_anytime rng n ~samples wavefront =
  if n = 0 then 0
  else
    Dmc_obs.Span.with_
      ~attrs:[ ("n", string_of_int n); ("samples", string_of_int samples) ]
      "wavefront.wmax_sampled_anytime"
      (fun () ->
        let best = ref 0 in
        let completed = ref 0 in
        (try
           for _ = 1 to samples do
             let x = Rng.int rng n in
             best := Int.max !best (wavefront x);
             incr completed
           done
         with Budget.Exhausted _ -> ());
        Dmc_obs.Span.note "completed" (string_of_int !completed);
        !best)

let wmax_sampled_anytime ?budget rng g ~samples =
  sample_anytime rng (Cdag.n_vertices g) ~samples (min_wavefront ?budget g)

let lemma2_bound ~wavefront ~s = max 0 (2 * (wavefront - s))

type witness = {
  x : Cdag.vertex;
  paths : Cdag.vertex list list;
}

let witness g x =
  match terminals g x with
  | None -> { x; paths = [] }
  | Some (from_set, to_set) ->
      { x; paths = Vertex_cut.path_witness g ~from_set ~to_set ~uncuttable:to_set () }

let verify_witness g w =
  let n = Cdag.n_vertices g in
  let desc = Reach.descendants g w.x in
  let anc = Reach.ancestors g w.x in
  let seen_outside = Bitset.create n in
  let path_ok path =
    match path with
    | [] -> false
    | first :: _ ->
        (* starts at x or one of its ancestors *)
        (first = w.x || Bitset.mem anc first)
        (* consecutive vertices are edges *)
        && (let rec edges_ok = function
              | a :: (b :: _ as rest) -> Cdag.has_edge g a b && edges_ok rest
              | [ _ ] | [] -> true
            in
            edges_ok path)
        (* ends inside Desc(x) *)
        && Bitset.mem desc (List.nth path (List.length path - 1))
        (* vertices outside Desc(x) belong to this path alone *)
        && List.for_all
             (fun v ->
               Bitset.mem desc v
               ||
               if Bitset.mem seen_outside v then false
               else begin
                 Bitset.add seen_outside v;
                 true
               end)
             path
  in
  List.for_all path_ok w.paths

let exact_threshold = 512

(* Corollary 2's two sound variants: drop only the inputs (outputs
   keep their wavefront paths), or drop both and bank |dO| as forced
   stores.  Each stripped graph comes with the I/O it credits back. *)
let strip g =
  let part_i, di = Subgraph.drop_inputs g in
  let part_io, di', d_o = Subgraph.drop_io g in
  ((part_i.Subgraph.graph, di), (part_io.Subgraph.graph, di' + d_o))

(* Take the better variant, given each stripped graph's max
   min-wavefront and credit. *)
let combine ~s (w_inputs, inputs_credit) (w_io, io_credit) =
  max
    (lemma2_bound ~wavefront:w_inputs ~s + inputs_credit)
    (lemma2_bound ~wavefront:w_io ~s + io_credit)

(* Lemma 2 reads a wavefront only through [2 max(0, w - S)], so a
   sweep floored at [s] gives the same bound and flows only where a
   ceiling exceeds [s]. *)
let lower_bound ?(samples = 64) ?rng g ~s =
  let wmax stripped =
    let n = Cdag.n_vertices stripped in
    if n = 0 then 0
    else if n <= exact_threshold then fst (sweep_exact stripped ~at_least:s)
    else
      let rng = match rng with Some r -> r | None -> Rng.create 0x5eed in
      fst (sweep_sampled rng stripped ~samples ~at_least:s)
  in
  let (g_inputs, inputs_credit), (g_io, io_credit) = strip g in
  let w_inputs = wmax g_inputs in
  let w_io = wmax g_io in
  combine ~s (w_inputs, inputs_credit) (w_io, io_credit)

(* ------------------------------------------------------------------ *)
(* The fallback ladder's shared min-cut queries                        *)

(* One stripped graph's query records: [value.(x)] is [x]'s min cut, or
   [-1] while no query of [x] has completed; [ticks.(x)] is what the
   completed query spent, or — for a query cut short — what it spent
   before it raised, a lower bound on its cost (0: never asked). *)
type memo = { value : int array; ticks : int array }

type record = { r_inputs : memo; r_io : memo }

(* One stripped graph of a ladder: its split network, prepared on first
   need and shared by both rungs, and its query records. *)
type part = {
  graph : Cdag.t;
  credit : int;
  prepared : Vertex_cut.prepared Lazy.t;
  memo : memo;
}

type ladder = {
  samples : int;
  inputs : part;  (* inputs dropped *)
  io : part;  (* inputs and outputs dropped *)
}

let sampler_seed = 0x5eed

(* The vertex counts of [strip g]'s two graphs, without building them. *)
let stripped_sizes g =
  Cdag.fold_vertices g
    (fun (n_inputs, n_io) v ->
      if Cdag.is_input g v then (n_inputs, n_io)
      else if Cdag.is_output g v then (n_inputs + 1, n_io)
      else (n_inputs + 1, n_io + 1))
    (0, 0)

let record_fits r g =
  stripped_sizes g = (Array.length r.r_inputs.value, Array.length r.r_io.value)

let copy_memo m = { value = Array.copy m.value; ticks = Array.copy m.ticks }

let ladder ?(samples = 64) ?record g =
  (match record with
  | Some r when not (record_fits r g) ->
      invalid_arg "Wavefront.ladder: the record does not fit the graph"
  | _ -> ());
  let part (graph, credit) seed =
    let n = Cdag.n_vertices graph in
    {
      graph;
      credit;
      prepared = lazy (Vertex_cut.prepare graph);
      memo =
        (match seed with
        | Some m -> copy_memo m
        | None -> { value = Array.make n (-1); ticks = Array.make n 0 });
    }
  in
  let inputs, io = strip g in
  {
    samples;
    inputs = part inputs (Option.map (fun r -> r.r_inputs) record);
    io = part io (Option.map (fun r -> r.r_io) record);
  }

let record l = { r_inputs = copy_memo l.inputs.memo; r_io = copy_memo l.io.memo }

(* A recorded vertex re-charges its ticks instead of re-running the
   flow.  A vertex whose query was cut short after [k] ticks costs at
   least [k], so a budget that [k] ticks would spend exhausts through
   the same replay; with more budget left the flow runs. *)
let query ?budget part x =
  let m = part.memo in
  let recorded = m.value.(x) in
  if recorded >= 0 then begin
    Option.iter (fun b -> Budget.replay b m.ticks.(x)) budget;
    recorded
  end
  else
    match budget with
    | None -> cut_of part.graph part.prepared x
    | Some b when Budget.spends_limit_within b m.ticks.(x) ->
        Budget.replay b m.ticks.(x);
        assert false (* the replay raises *)
    | Some b -> (
        let before = Budget.spent b in
        match cut_of ~budget:b part.graph part.prepared x with
        | w ->
            m.value.(x) <- w;
            m.ticks.(x) <- Budget.spent b - before;
            w
        | exception (Budget.Exhausted _ as e) ->
            m.ticks.(x) <- max m.ticks.(x) (Budget.spent b - before);
            raise e)

(* The vertices the sampled rung draws when none of its queries is cut
   short: one generator across both stripped graphs, inputs-dropped
   first. *)
let sampler_draws l =
  let rng = Rng.create sampler_seed in
  let draw part =
    let n = Cdag.n_vertices part.graph in
    if n = 0 then [||] else Array.init (max 0 l.samples) (fun _ -> Rng.int rng n)
  in
  let d_inputs = draw l.inputs in
  let d_io = draw l.io in
  (d_inputs, d_io)

let exact_rung ?budget l ~s =
  let n part = string_of_int (Cdag.n_vertices part.graph) in
  Dmc_obs.Span.with_
    ~attrs:[ ("n_inputs", n l.inputs); ("n_io", n l.io) ]
    "wavefront.exact_sweep"
    (fun () ->
      let sweeper part =
        let seen = Bitset.create (Cdag.n_vertices part.graph) and best = ref 0 in
        let visit x =
          if not (Bitset.mem seen x) then begin
            Bitset.add seen x;
            best := Int.max !best (query ?budget part x)
          end
        in
        (visit, best)
      in
      let visit_inputs, w_inputs = sweeper l.inputs in
      let visit_io, w_io = sweeper l.io in
      let d_inputs, d_io = sampler_draws l in
      Array.iter visit_inputs d_inputs;
      Array.iter visit_io d_io;
      Cdag.iter_vertices l.inputs.graph visit_inputs;
      Cdag.iter_vertices l.io.graph visit_io;
      combine ~s (!w_inputs, l.inputs.credit) (!w_io, l.io.credit))

let sampled_rung ?budget l ~s =
  let rng = Rng.create sampler_seed in
  let sample part =
    sample_anytime rng (Cdag.n_vertices part.graph) ~samples:l.samples
      (query ?budget part)
  in
  let w_inputs = sample l.inputs in
  let w_io = sample l.io in
  combine ~s (w_inputs, l.inputs.credit) (w_io, l.io.credit)

(* Only the asked vertices travel: [[x, value, ticks], ...] per
   stripped graph, beside its vertex count. *)
let record_to_json r =
  let module J = Dmc_util.Json in
  let memo m =
    let entries = ref [] in
    for x = Array.length m.value - 1 downto 0 do
      if m.value.(x) >= 0 || m.ticks.(x) > 0 then
        entries := J.List [ J.Int x; J.Int m.value.(x); J.Int m.ticks.(x) ] :: !entries
    done;
    J.Obj [ ("n", J.Int (Array.length m.value)); ("queries", J.List !entries) ]
  in
  J.Obj [ ("inputs", memo r.r_inputs); ("io", memo r.r_io) ]

let record_of_json json =
  let module J = Dmc_util.Json in
  let memo field =
    let get key = Option.bind (J.mem json field) (fun o -> J.mem o key) in
    match (Option.bind (get "n") J.as_int, Option.bind (get "queries") J.as_list) with
    | Some n, Some entries when n >= 0 ->
        let m = { value = Array.make n (-1); ticks = Array.make n 0 } in
        let entry e =
          match Option.map (List.map J.as_int) (J.as_list e) with
          | Some [ Some x; Some value; Some ticks ]
            when x >= 0 && x < n && value >= -1 && ticks >= 0 ->
              m.value.(x) <- value;
              m.ticks.(x) <- ticks;
              true
          | _ -> false
        in
        if List.for_all entry entries then Ok m
        else Error (Printf.sprintf "record: bad %s query entry" field)
    | _ -> Error (Printf.sprintf "record: %s needs a count n and a query list" field)
  in
  Result.bind (memo "inputs") (fun r_inputs ->
      Result.map (fun r_io -> { r_inputs; r_io }) (memo "io"))
