module Bitset = Dmc_util.Bitset
module Rng = Dmc_util.Rng
module Cdag = Dmc_cdag.Cdag
module Reach = Dmc_cdag.Reach
module Subgraph = Dmc_cdag.Subgraph
module Vertex_cut = Dmc_flow.Vertex_cut

let c_mincut = Dmc_obs.Counter.make "wavefront.mincut_calls"
let h_cut_size = Dmc_obs.Histogram.make "wavefront.cut_size"

(* The terminal sets of [x]'s min-cut query, [{x} ∪ Anc(x)] and
   [Desc(x)]; [None] when [x] has no descendants, so that its wavefront
   is just [{x}]. *)
let terminals g x =
  let desc = Reach.descendants g x in
  if Bitset.is_empty desc then None
  else Some (x :: Bitset.elements (Reach.ancestors g x), Bitset.elements desc)

let min_wavefront ?budget g =
  let prepared = lazy (Vertex_cut.prepare g) in
  fun x ->
    Dmc_obs.Counter.incr c_mincut;
    let size =
      match terminals g x with
      | None -> 1
      | Some (from_set, to_set) ->
          Vertex_cut.cut_size ?budget (Lazy.force prepared) ~from_set ~to_set
            ~uncuttable:to_set ()
    in
    Dmc_obs.Histogram.observe h_cut_size size;
    size

let wmax_exact ?budget g =
  Dmc_obs.Span.with_
    ~attrs:[ ("n", string_of_int (Cdag.n_vertices g)) ]
    "wavefront.wmax_exact"
    (fun () ->
      let wavefront = min_wavefront ?budget g in
      Cdag.fold_vertices g (fun acc x -> max acc (wavefront x)) 0)

let wmax_sampled ?budget rng g ~samples =
  let n = Cdag.n_vertices g in
  if n = 0 then 0
  else
    Dmc_obs.Span.with_
      ~attrs:[ ("n", string_of_int n); ("samples", string_of_int samples) ]
      "wavefront.wmax_sampled"
      (fun () ->
        let wavefront = min_wavefront ?budget g in
        let best = ref 0 in
        for _ = 1 to samples do
          let x = Rng.int rng n in
          best := max !best (wavefront x)
        done;
        !best)

(* Anytime variant for the fallback ladder: sample until the budget
   runs out and keep the best bound found so far.  Sound because
   Lemma 2 holds for every vertex, so a partial sweep only weakens the
   bound, never invalidates it. *)
let wmax_sampled_anytime ?budget rng g ~samples =
  let n = Cdag.n_vertices g in
  if n = 0 then 0
  else
    Dmc_obs.Span.with_
      ~attrs:[ ("n", string_of_int n); ("samples", string_of_int samples) ]
      "wavefront.wmax_sampled_anytime"
      (fun () ->
        let wavefront = min_wavefront ?budget g in
        let best = ref 0 in
        let completed = ref 0 in
        (try
           for _ = 1 to samples do
             let x = Rng.int rng n in
             best := max !best (wavefront x);
             incr completed
           done
         with Dmc_util.Budget.Exhausted _ -> ());
        Dmc_obs.Span.note "completed" (string_of_int !completed);
        !best)

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

(* Two sound variants: drop only the inputs (outputs keep their
   wavefront paths), or drop both and bank |dO| as forced stores.
   Take the better.  [wmax_of] computes the max min-wavefront of a
   stripped graph; parameterizing it lets the fallback ladder swap the
   exact sweep for the anytime sampler without duplicating the
   stripping logic. *)
let lower_bound_via wmax_of g ~s =
  let wmax stripped =
    if Cdag.n_vertices stripped = 0 then 0 else wmax_of stripped
  in
  let part_i, di = Subgraph.drop_inputs g in
  let via_inputs = lemma2_bound ~wavefront:(wmax part_i.Subgraph.graph) ~s + di in
  let part_io, di', d_o = Subgraph.drop_io g in
  let via_both =
    lemma2_bound ~wavefront:(wmax part_io.Subgraph.graph) ~s + di' + d_o
  in
  max via_inputs via_both

let lower_bound ?budget ?(samples = 64) ?rng g ~s =
  let wmax stripped =
    if Cdag.n_vertices stripped <= exact_threshold then
      wmax_exact ?budget stripped
    else
      let rng = match rng with Some r -> r | None -> Rng.create 0x5eed in
      wmax_sampled ?budget rng stripped ~samples
  in
  lower_bound_via wmax g ~s
