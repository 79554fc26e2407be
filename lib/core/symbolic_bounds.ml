module Cdag = Dmc_cdag.Cdag
module Expr = Dmc_symbolic.Expr
module Json = Dmc_util.Json
module Shapes = Dmc_gen.Shapes
module Fft = Dmc_gen.Fft
module Stencil = Dmc_gen.Stencil
module Grid = Dmc_gen.Grid
module Workload = Dmc_gen.Workload

(* The recombination scheme, family by family:

   Theorem 2 lets us cut a CDAG into disjoint pieces and sum per-piece
   lower bounds.  For the regular generators the pieces fall into a
   handful of isomorphism classes — every interior stencil block looks
   like every other — and the isomorphisms preserve the piece's
   Theorem-2 tagging (I and O restricted to the piece).  The induced
   piece and the class representative then freeze to byte-identical
   CSR structures, and the wavefront engine is deterministic given the
   structure (it seeds its own rng per call), so

       engine(piece) = engine(representative)

   holds exactly, not just approximately.  The whole-graph bound
   collapses to

       sum over classes of  count(class) * engine(representative),

   with the counts closed forms in the size variable [n].  One small
   representative per class is the only thing ever materialized, so
   the scheme prices a billion-node bound at a few tile analyses. *)

type cls = {
  cls_name : string;
  cls_count : Expr.t;  (** copies of this class, as a closed form in [n] *)
  cls_count_now : int;
  cls_bound : int;  (** engine bound of the representative *)
  cls_tile_vertices : int;
}

type t = {
  family : string;
  spec : string;
  size : int;
  s : int;
  tile : int;
  samples : int;
  formula : Expr.t;
  value : int;
  classes : cls list;
  dropped : string option;
  n_vertices : int;
}

let families =
  [ "chain"; "tree"; "diamond"; "fft"; "jacobi1d"; "jacobi2d"; "jacobi3d" ]

let supports name = List.mem name families

let default_samples = 8

(* engine shared by the symbolic side and the numeric reference; the
   per-call seed in Wavefront.lower_bound makes it a pure function of
   the frozen structure *)
let engine ~samples ~s g = Wavefront.lower_bound ~samples g ~s

(* ---- plan: the family-specific partition description ------------- *)

(* [pl_color]/[pl_zero] describe the same partition over the
   materialized instance, for cross-validation at overlapping sizes:
   [pl_color v] is the piece of vertex [v], and pieces listed in
   [pl_zero] are the ones the symbolic side bounds by the trivial 0. *)
type plan = {
  pl_classes : (string * Expr.t * int * Cdag.t) list;
      (* name, count in n, count at this instance, representative *)
  pl_dropped : string option;
  pl_tile : int;
  pl_n_pieces : int;
  pl_color : Cdag.t -> int array;
  pl_zero : int list;
}

let nvar = Expr.var "n"

let cint = Expr.int

(* Exact power-of-two helpers for the FFT plan. *)
let rec log2i v = if v <= 1 then 0 else 1 + log2i (v / 2)

(* ---- chain ------------------------------------------------------- *)

(* Contiguous id blocks of width [w].  Interior blocks carry no tags;
   the first keeps the input, the last the output. *)
let plan_chain ~tile n =
  let w = min tile n in
  let full = n / w and rem = n mod w in
  let nblocks = full + if rem > 0 then 1 else 0 in
  let retag g ~inp ~outp =
    Cdag.retag g
      ~inputs:(if inp then [ 0 ] else [])
      ~outputs:(if outp then [ Cdag.n_vertices g - 1 ] else [])
  in
  let classes =
    if nblocks = 1 then
      [ ("whole", cint 1, 1, Shapes.chain n) ]
    else begin
      let first = ("first", cint 1, 1, retag (Shapes.chain w) ~inp:true ~outp:false) in
      let last_w = if rem > 0 then rem else w in
      let last =
        ("last", cint 1, 1, retag (Shapes.chain last_w) ~inp:false ~outp:true)
      in
      (* interior full blocks: floor(n/w) minus the full endpoint blocks *)
      let full_endpoints = 1 + if rem = 0 then 1 else 0 in
      let n_interior = full - full_endpoints in
      if n_interior > 0 then
        [
          first;
          ( "interior",
            Expr.(Sub (floor_ (nvar / cint w), cint full_endpoints)),
            n_interior,
            retag (Shapes.chain w) ~inp:false ~outp:false );
          last;
        ]
      else [ first; last ]
    end
  in
  {
    pl_classes = classes;
    pl_dropped = None;
    pl_tile = w;
    pl_n_pieces = nblocks;
    pl_color = (fun _ -> Array.init n (fun v -> min (v / w) (nblocks - 1)));
    pl_zero = [];
  }

(* ---- binary reduction tree -------------------------------------- *)

(* Groups of [w] consecutive leaves each reduce within their own
   vertex set (pairing in Shapes.reduction_tree is position-local), so
   every full group induces the same sub-CDAG: a reduction tree over
   [w] tagged leaves with an untagged root.  Everything above the
   group roots is one leftover piece, bounded by the trivial 0 — sound
   under Theorem 2, and small: it costs the closed form nothing but an
   [O(n/w)] additive term it chooses not to claim. *)
let plan_tree ~tile n =
  (* power-of-two group width keeps full groups carry-free *)
  let w = max 2 (1 lsl log2i (min tile n)) in
  if n <= w then begin
    let g = Shapes.reduction_tree n in
    {
      pl_classes = [ ("whole", cint 1, 1, g) ];
      pl_dropped = None;
      pl_tile = n;
      pl_n_pieces = 1;
      pl_color = (fun g -> Array.make (Cdag.n_vertices g) 0);
      pl_zero = [];
    }
  end
  else begin
    let full = n / w and rem = n mod w in
    let ngroups = full + if rem > 0 then 1 else 0 in
    let subtree leaves =
      let g = Shapes.reduction_tree leaves in
      Cdag.retag g ~inputs:(List.init leaves (fun i -> i)) ~outputs:[]
    in
    let classes =
      ( "subtree",
        Expr.(floor_ (nvar / cint w)),
        full,
        subtree w )
      ::
      (if rem > 1 then [ ("subtree-rem", cint 1, 1, subtree rem) ] else [])
    in
    (* a 1-leaf remainder group is a single tagged input vertex; its
       induced piece still exists (one vertex, bound |dI| = 1) *)
    let classes =
      if rem = 1 then
        classes
        @ [
            ( "subtree-rem",
              cint 1,
              1,
              Cdag.retag (Shapes.chain 1) ~inputs:[ 0 ] ~outputs:[] );
          ]
      else classes
    in
    let color g =
      let nv = Cdag.n_vertices g in
      let color = Array.make nv (-1) in
      let top = ngroups in
      for v = 0 to nv - 1 do
        if v < n then color.(v) <- min (v / w) (ngroups - 1)
        else begin
          (* both children already colored (smaller ids); the piece
             survives only if they agree *)
          let c = ref (-2) in
          Cdag.iter_pred g v (fun u ->
              if !c = -2 then c := color.(u)
              else if !c <> color.(u) then c := top);
          color.(v) <- (if !c >= 0 && !c < top then !c else top)
        end
      done;
      color
    in
    {
      pl_classes = classes;
      pl_dropped = Some "top recombination tree (bounded by 0)";
      pl_tile = w;
      pl_n_pieces = ngroups + 1;
      pl_color = color;
      pl_zero = [ ngroups ];
    }
  end

(* ---- diamond lattice (square) ----------------------------------- *)

let plan_diamond ~tile n =
  let w = min tile n in
  let full = n / w and rem = n mod w in
  let nb = full + if rem > 0 then 1 else 0 in
  let block ~rows ~cols ~inp ~outp =
    let g = Shapes.diamond ~rows ~cols in
    Cdag.retag g
      ~inputs:(if inp then [ 0 ] else [])
      ~outputs:(if outp then [ (rows * cols) - 1 ] else [])
  in
  let classes =
    if nb = 1 then
      [ ("whole", cint 1, 1, block ~rows:n ~cols:n ~inp:true ~outp:true) ]
    else begin
      let fl = Expr.(floor_ (nvar / cint w)) in
      let acc = ref [] in
      let add name count count_now rows cols inp outp =
        if count_now > 0 then
          acc := (name, count, count_now, block ~rows ~cols ~inp ~outp) :: !acc
      in
      let term_is_full = rem = 0 in
      (* origin block (0,0) is full on both axes (nb >= 2 here, so it
         is never also the terminal block) *)
      add "origin" (cint 1) 1 w w true false;
      if term_is_full then add "terminal" (cint 1) 1 w w false true;
      let n_ff_endpoints = 1 + if term_is_full then 1 else 0 in
      add "interior"
        Expr.(Sub (Mul (fl, fl), cint n_ff_endpoints))
        ((full * full) - n_ff_endpoints)
        w w false false;
      if rem > 0 then begin
        (* the remainder strips along each axis, and the remainder
           corner (which holds the output) *)
        add "east" fl full w rem false false;
        add "south" fl full rem w false false;
        add "terminal" (cint 1) 1 rem rem false true
      end;
      List.rev !acc
    end
  in
  {
    pl_classes = classes;
    pl_dropped = None;
    pl_tile = w;
    pl_n_pieces = nb * nb;
    pl_color =
      (fun _ ->
        Array.init (n * n) (fun v ->
            let i = v / n and j = v mod n in
            (min (i / w) (nb - 1) * nb) + min (j / w) (nb - 1)));
    pl_zero = [];
  }

(* ---- Jacobi stencils -------------------------------------------- *)

(* Spatial blocks of side [w] spanning all time steps.  A block's
   induced piece is exactly the stencil on the block's own box —
   cross-block neighbor edges drop, interior and boundary blocks alike
   — with the block's t=0 points tagged input and t=T points output,
   i.e. the generator run at the block dimensions. *)
let plan_jacobi ~tile ~shape ~dim ~steps n =
  (* cap the block so one representative stays materializable:
     w^dim * (steps+1) vertices, at most ~60k *)
  let cap =
    let per_slice = max 1 (60_000 / (steps + 1)) in
    max 4
      (int_of_float
         (Float.pow (float_of_int per_slice) (1.0 /. float_of_int dim)))
  in
  let w = min (min tile n) cap in
  let full = n / w and rem = n mod w in
  let widths = if rem > 0 then [ w; rem ] else [ w ] in
  (* one class per per-dimension width combination *)
  let rec combos d =
    if d = 0 then [ [] ]
    else
      List.concat_map (fun tail -> List.map (fun h -> h :: tail) widths) (combos (d - 1))
  in
  let classes =
    List.filter_map
      (fun dims ->
        let count_now =
          List.fold_left (fun acc wd -> acc * if wd = w then full else 1) 1 dims
        in
        if count_now = 0 then None
        else begin
          let n_full = List.length (List.filter (fun wd -> wd = w) dims) in
          let count =
            if n_full = 0 then cint 1
            else
              Expr.(
                Pow (floor_ (nvar / cint w), cint n_full))
          in
          let name =
            "block["
            ^ String.concat "x" (List.map string_of_int dims)
            ^ "]"
          in
          let rep = (Stencil.jacobi ~shape ~dims ~steps ()).Stencil.graph in
          Some (name, Expr.simplify count, count_now, rep)
        end)
      (combos dim)
  in
  let nb = full + if rem > 0 then 1 else 0 in
  let color g =
    let nv = Cdag.n_vertices g in
    let npts =
      let rec go acc i = if i = 0 then acc else go (acc * n) (i - 1) in
      go 1 dim
    in
    let grid = Grid.create (List.init dim (fun _ -> n)) in
    ignore nv;
    Array.init (Cdag.n_vertices g) (fun v ->
        let x = v mod npts in
        let coords = Grid.coord grid x in
        List.fold_left
          (fun acc c -> (acc * nb) + min (c / w) (nb - 1))
          0 coords)
  in
  {
    pl_classes = classes;
    pl_dropped = None;
    pl_tile = w;
    pl_n_pieces =
      (let rec go acc i = if i = 0 then acc else go (acc * nb) (i - 1) in
       go 1 dim);
    pl_color = color;
    pl_zero = [];
  }

(* ---- FFT butterfly ---------------------------------------------- *)

(* Rank bands of m stages (m+1 rank rows per full band).  A band's
   columns split by the bits outside the band's active window into
   n / 2^m groups, each inducing a butterfly(m) copy; only the first
   band keeps input tags, only the last keeps outputs.  [n] in the
   closed form is the row width 2^K. *)
let plan_fft ~tile k =
  let n = 1 lsl k in
  (* stages per band: tile counts butterfly stages here *)
  let m = max 1 (min k (min tile 20)) in
  let band_ranks = m + 1 in
  let nbands = (k + 1 + band_ranks - 1) / band_ranks in
  let rem_ranks = (k + 1) mod band_ranks in
  let band_of_rank r = r / band_ranks in
  let stages_of_band b =
    let ranks =
      if b = nbands - 1 && rem_ranks > 0 then rem_ranks else band_ranks
    in
    ranks - 1
  in
  let rep b =
    let st = stages_of_band b in
    let g = Fft.butterfly st in
    let width = 1 lsl st in
    let inputs = if b = 0 then List.init width (fun i -> i) else [] in
    let outputs =
      if b = nbands - 1 then List.init width (fun i -> (st * width) + i)
      else []
    in
    Cdag.retag g ~inputs ~outputs
  in
  let copies_expr st = Expr.(nvar / cint (1 lsl st)) in
  let copies_now st = n / (1 lsl st) in
  let classes =
    if nbands = 1 then [ ("whole", cint 1, 1, rep 0) ]
    else begin
      let acc = ref [] in
      let add name count count_now b =
        if count_now > 0 then acc := (name, count, count_now, rep b) :: !acc
      in
      add "first" (copies_expr m) (copies_now m) 0;
      let interior = nbands - 2 in
      (* interior band count as a closed form in n = 2^K:
         floor((log2 n + 1) / (m+1)) full bands, minus the endpoint
         full bands *)
      (if interior > 0 then
         let full_endpoints = 1 + if rem_ranks = 0 then 1 else 0 in
         let count =
           Expr.(
             Mul
               ( Sub
                   ( floor_ (Div (Add (Log2 nvar, cint 1), cint band_ranks)),
                     cint full_endpoints ),
                 copies_expr m ))
         in
         add "interior" count (interior * copies_now m) 1);
      let last_st = stages_of_band (nbands - 1) in
      add "last" (copies_expr last_st) (copies_now last_st) (nbands - 1);
      List.rev !acc
    end
  in
  (* piece index: bands in order, then the column group (active bits
     compressed out) within the band *)
  let band_base = Array.make (nbands + 1) 0 in
  for b = 0 to nbands - 1 do
    band_base.(b + 1) <- band_base.(b) + copies_now (stages_of_band b)
  done;
  let color g =
    Array.init (Cdag.n_vertices g) (fun v ->
        let rank = v / n and col = v mod n in
        let b = band_of_rank rank in
        let a = b * band_ranks in
        let st = stages_of_band b in
        let group = ((col lsr (a + st)) lsl a) lor (col land ((1 lsl a) - 1)) in
        band_base.(b) + group)
  in
  {
    pl_classes = classes;
    pl_dropped = None;
    pl_tile = m;
    pl_n_pieces = band_base.(nbands);
    pl_color = color;
    pl_zero = [];
  }

(* ---- spec plumbing ---------------------------------------------- *)

let default_tile ~s = max 64 (2 * s)

(* fft's tile is stages-per-band: the representative has (m+1) * 2^m
   vertices, so the default is log-scaled (2^m ~ 2S) where the block
   families scale linearly *)
let default_fft_tile ~s =
  let target = default_tile ~s in
  let rec go m = if 2 lsl m <= target && m < 20 then go (m + 1) else m in
  go 1

let plan_of ~tile ~s name args =
  let tile_for = function
    | "fft" -> Option.value tile ~default:(default_fft_tile ~s)
    (* the engine's per-sample min-cut makes diamond cost grow ~w^4,
       so the default stays small; pass --tile > S (and patience) for
       a nontrivial per-block wavefront *)
    | "diamond" -> Option.value tile ~default:(min (default_tile ~s) 64)
    | _ -> Option.value tile ~default:(default_tile ~s)
  in
  let tile = tile_for name in
  match (name, args) with
  | "chain", [ n ] when n > 0 -> Ok (n, plan_chain ~tile n)
  | "tree", [ n ] when n > 0 -> Ok (n, plan_tree ~tile n)
  | "diamond", [ r; c ] when r > 0 && r = c -> Ok (r, plan_diamond ~tile r)
  | "diamond", [ _; _ ] ->
      Error "symbolic diamond requires a square instance (R = C)"
  | "fft", [ k ] when k >= 0 && k <= 55 -> Ok (1 lsl k, plan_fft ~tile k)
  | "jacobi1d", [ n; t ] when n > 0 && t >= 1 ->
      Ok (n, plan_jacobi ~tile ~shape:Stencil.Star ~dim:1 ~steps:t n)
  | "jacobi2d", [ n; t ] when n > 0 && t >= 1 ->
      Ok (n, plan_jacobi ~tile ~shape:Stencil.Box ~dim:2 ~steps:t n)
  | "jacobi3d", [ n; t ] when n > 0 && t >= 1 ->
      Ok (n, plan_jacobi ~tile ~shape:Stencil.Star ~dim:3 ~steps:t n)
  | _ ->
      Error
        (Printf.sprintf
           "no symbolic plan for '%s' (supported: %s; matmul keeps its \
            analytic bound from Formulas)"
           name (String.concat ", " families))

(* An implicit spec (omitted trailing parameters defaulted), resolved
   and planned. *)
let resolve_plan ~tile ~s spec =
  Result.bind (Workload.resolve ~implicit:true spec)
    (fun ({ Workload.name; _ }, args) ->
      Result.map
        (fun (size, plan) -> (name, args, size, plan))
        (plan_of ~tile ~s name args))

let bound ?(samples = default_samples) ?tile ~spec ~s () =
  if s < 1 then Error "S must be >= 1"
  else
    match resolve_plan ~tile ~s spec with
    | Error e -> Error e
    | Ok (name, args, size, plan) ->
        Dmc_obs.Span.with_
          ~attrs:[ ("spec", spec); ("s", string_of_int s) ]
          "core.symbolic.bound"
        @@ fun () ->
        let classes =
          List.map
            (fun (cname, count, count_now, rep) ->
              {
                cls_name = cname;
                cls_count = Expr.simplify count;
                cls_count_now = count_now;
                cls_bound = engine ~samples ~s rep;
                cls_tile_vertices = Cdag.n_vertices rep;
              })
            plan.pl_classes
        in
        let value =
          List.fold_left
            (fun acc c -> acc + (c.cls_count_now * c.cls_bound))
            0 classes
        in
        let formula =
          Expr.simplify
            (List.fold_left
               (fun acc c ->
                 Expr.(Add (acc, Mul (c.cls_count, Expr.int c.cls_bound))))
               (Expr.int 0) classes)
        in
        let n_vertices =
          match Workload.build_implicit name args with
          | Ok imp -> imp.Dmc_cdag.Implicit.n_vertices
          | Error _ -> 0
        in
        Ok
          {
            family = name;
            spec;
            size;
            s;
            tile = plan.pl_tile;
            samples;
            formula;
            value;
            classes;
            dropped = plan.pl_dropped;
            n_vertices;
          }

(* The numeric reference: materialize the instance, cut it with the
   same partition, bound every piece with the same engine (pieces the
   symbolic side drops contribute the same trivial 0), and sum.  By
   construction this must equal {!bound}'s [value] exactly — the
   cross-validation the tests and the CI leg enforce. *)
let numeric_reference ?(samples = default_samples) ?tile ~spec ~s () =
  if s < 1 then Error "S must be >= 1"
  else
    match resolve_plan ~tile ~s spec with
    | Error e -> Error e
    | Ok (name, args, _size, plan) -> (
        match Workload.build name args with
        | Error e -> Error e
        | Ok g ->
            let color = plan.pl_color g in
            let parts = Decompose.parts g ~color in
            let total = ref 0 in
            Array.iteri
              (fun i part ->
                if not (List.mem i plan.pl_zero) then
                  total :=
                    !total + engine ~samples ~s part.Dmc_cdag.Subgraph.graph)
              parts;
            Ok !total)

let to_json t =
  Json.Obj
    [
      ("kind", Json.String "dmc-symbolic-bound");
      ("spec", Json.String t.spec);
      ("family", Json.String t.family);
      ("size", Json.Int t.size);
      ("s", Json.Int t.s);
      ("tile", Json.Int t.tile);
      ("samples", Json.Int t.samples);
      ("n_vertices", Json.Int t.n_vertices);
      ("formula", Json.String (Expr.to_string t.formula));
      ("value", Json.Int t.value);
      ( "classes",
        Json.List
          (List.map
             (fun c ->
               Json.Obj
                 [
                   ("name", Json.String c.cls_name);
                   ("count", Json.String (Expr.to_string c.cls_count));
                   ("count_now", Json.Int c.cls_count_now);
                   ("bound", Json.Int c.cls_bound);
                   ("tile_vertices", Json.Int c.cls_tile_vertices);
                 ])
             t.classes) );
      ("dropped", Json.opt (fun d -> Json.String d) t.dropped);
    ]
