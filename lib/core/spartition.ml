module Bitset = Dmc_util.Bitset
module Budget = Dmc_util.Budget
module Cdag = Dmc_cdag.Cdag
module Intvec = Dmc_util.Intvec

let in_set g vi =
  let n = Cdag.n_vertices g in
  let out = Bitset.create n in
  Bitset.iter
    (fun v ->
      Cdag.iter_pred g v (fun u -> if not (Bitset.mem vi u) then Bitset.add out u))
    vi;
  out

let out_set g vi =
  let n = Cdag.n_vertices g in
  let out = Bitset.create n in
  Bitset.iter
    (fun v ->
      if Cdag.is_output g v then Bitset.add out v
      else
        Cdag.iter_succ g v (fun w ->
            if not (Bitset.mem vi w) then Bitset.add out v))
    vi;
  out

(* The lexicographically first [(i, j)], [i < j], with edges both ways
   between blocks [i] and [j] of an [h]-block coloring.  The sorted
   cross-block edges, encoded [i * h + j], stand in for an h×h adjacency
   matrix, so memory stays O(e). *)
let first_circuit g ~color ~h =
  let pairs = Intvec.create () in
  Cdag.iter_edges g (fun u v ->
      let cu = color.(u) and cv = color.(v) in
      if cu >= 0 && cv >= 0 && cu <> cv then Intvec.push pairs ((cu * h) + cv));
  Intvec.sort pairs;
  let pairs = Intvec.to_array pairs in
  let rec mem x lo hi =
    lo < hi
    &&
    let mid = (lo + hi) / 2 in
    pairs.(mid) = x || if pairs.(mid) < x then mem x (mid + 1) hi else mem x lo mid
  in
  Array.find_opt
    (fun p ->
      let i = p / h and j = p mod h in
      i < j && mem ((j * h) + i) 0 (Array.length pairs))
    pairs
  |> Option.map (fun p -> (p / h, p mod h))

let check g ~s ~color =
  let n = Cdag.n_vertices g in
  if Array.length color <> n then Error "color array has wrong length"
  else begin
    let bad = ref None in
    Array.iteri
      (fun v c ->
        if !bad = None then
          if Cdag.is_input g v then begin
            if c <> -1 then bad := Some (Printf.sprintf "input %d is colored" v)
          end
          else if c < 0 then
            bad := Some (Printf.sprintf "compute vertex %d is uncolored" v))
      color;
    match !bad with
    | Some msg -> Error msg
    | None -> (
        let h = 1 + Array.fold_left max (-1) color in
        (* P2: no two-subset circuit. *)
        match first_circuit g ~color ~h with
        | Some (i, j) -> Error (Printf.sprintf "circuit between subsets %d and %d" i j)
        | None ->
            (* One counting sort groups the vertices by block: block [b]
               is [members.(start.(b)) .. members.(start.(b + 1) - 1)]. *)
            let start = Array.make (h + 1) 0 in
            Array.iter (fun c -> if c >= 0 then start.(c + 1) <- start.(c + 1) + 1) color;
            for c = 1 to h do
              start.(c) <- start.(c) + start.(c - 1)
            done;
            let members = Array.make start.(h) 0 and next = Array.sub start 0 h in
            Array.iteri
              (fun v c ->
                if c >= 0 then begin
                  members.(next.(c)) <- v;
                  next.(c) <- next.(c) + 1
                end)
              color;
            let sum_members b f =
              let k = ref 0 in
              for m = start.(b) to start.(b + 1) - 1 do
                k := !k + f members.(m)
              done;
              !k
            in
            (* [stamp.(u) = b] once [u] is counted in [In(b)]. *)
            let stamp = Array.make n (-1) in
            let in_size b =
              sum_members b (fun v ->
                  Cdag.fold_pred g v
                    (fun k u ->
                      if color.(u) = b || stamp.(u) = b then k
                      else begin
                        stamp.(u) <- b;
                        k + 1
                      end)
                    0)
            in
            let out_size b =
              sum_members b (fun v ->
                  if
                    Cdag.is_output g v
                    || Cdag.fold_succ g v (fun o w -> o || color.(w) <> b) false
                  then 1
                  else 0)
            in
            let rec scan b nonempty =
              if b = h then Ok nonempty
              else if start.(b) = start.(b + 1) then scan (b + 1) nonempty
              else if in_size b > s then Error "subset with |In| > S"
              else if out_size b > s then Error "subset with |Out| > S"
              else scan (b + 1) (nonempty + 1)
            in
            scan 0 0)
  end

let of_game g ~s moves =
  (match Rbw_game.validate g ~s moves with
  | Some e -> failwith (Printf.sprintf "Spartition.of_game: invalid game at step %d: %s" e.step e.reason)
  | None -> ());
  let n = Cdag.n_vertices g in
  let color = Array.make n (-1) in
  let phase = ref 0 and io_in_phase = ref 0 in
  List.iter
    (fun (m : Rbw_game.move) ->
      match m with
      | Rb_game.Load _ | Rb_game.Store _ ->
          if !io_in_phase = s then begin
            incr phase;
            io_in_phase := 0
          end;
          incr io_in_phase
      | Rb_game.Compute v -> color.(v) <- !phase
      | Rb_game.Delete _ -> ())
    moves;
  (* Compact colors so phases without computes disappear. *)
  let remap = Hashtbl.create 16 in
  let next = ref 0 in
  Array.map
    (fun c ->
      if c < 0 then -1
      else begin
        match Hashtbl.find_opt remap c with
        | Some c' -> c'
        | None ->
            let c' = !next in
            incr next;
            Hashtbl.replace remap c c';
            c'
      end)
    color

let compute_vertices g =
  Cdag.fold_vertices g
    (fun acc v -> if Cdag.is_input g v then acc else v :: acc)
    []
  |> List.rev |> Array.of_list

let c_nodes = Dmc_obs.Counter.make "spartition.nodes"
let c_masks = Dmc_obs.Counter.make "spartition.masks"
let h_block_count = Dmc_obs.Histogram.make "spartition.block_count"

let min_h_exact ?budget ?(max_nodes = 20_000_000) g ~s =
  let vs = compute_vertices g in
  let n' = Array.length vs in
  if n' = 0 then 0
  else
    Dmc_obs.Span.with_
      ~attrs:[ ("s", string_of_int s); ("n_compute", string_of_int n') ]
      "spartition.min_h_exact"
    @@ fun () ->
    begin
    let n = Cdag.n_vertices g in
    let color = Array.make n (-1) in
    let best = ref n' in
    let nodes = ref 0 in
    (* Validity of the current coloring (unassigned vertices carry -1),
       updated in O(deg v) per assign or unassign of a vertex v instead
       of re-checking whole colorings at the leaves:
       - [into.(b).(u)]: successors of u in block b, so [n_in.(b)], the
         u outside b with into.(b).(u) > 0, is |In(b)|;
       - [same.(v)]: successors of v in v's own block, so [n_out.(b)],
         the v in b that are outputs or have same.(v) < outdeg v, is
         |Out(b)|;
       - [cross.(a).(b)]: edges from block a into block b <> a, so
         [circuits] counts the {a, b} with cross edges both ways.
       The rows of block b are allocated when b first opens, so the
       state is O((n + n') * blocks opened). *)
    let into = Array.make n' [||] and cross = Array.make n' [||] in
    let n_in = Array.make n' 0 and n_out = Array.make n' 0 in
    let same = Array.make n 0 and circuits = ref 0 in
    (* [cap.(v)]: outdeg v, or max_int for an output, so v is in Out of
       its block iff same.(v) < cap.(v). *)
    let cap =
      Array.init n (fun v -> if Cdag.is_output g v then max_int else Cdag.out_degree g v)
    in
    let in_out_set v = same.(v) < cap.(v) in
    let cross_edge a b d =
      let row = cross.(a) in
      let c = row.(b) + d in
      row.(b) <- c;
      if (c = 0 || (c = 1 && d > 0)) && cross.(b).(a) > 0 then circuits := !circuits + d
    in
    let add v b =
      color.(v) <- b;
      let into_b = into.(b) in
      if into_b.(v) > 0 then n_in.(b) <- n_in.(b) - 1;
      Cdag.iter_pred g v (fun u ->
          let cu = color.(u) in
          let k = into_b.(u) + 1 in
          into_b.(u) <- k;
          if k = 1 && cu <> b then n_in.(b) <- n_in.(b) + 1;
          if cu = b then begin
            let was = in_out_set u in
            same.(u) <- same.(u) + 1;
            if was && not (in_out_set u) then n_out.(b) <- n_out.(b) - 1
          end
          else if cu >= 0 then cross_edge cu b 1);
      same.(v) <- 0;
      Cdag.iter_succ g v (fun w ->
          let cw = color.(w) in
          if cw = b then same.(v) <- same.(v) + 1 else if cw >= 0 then cross_edge b cw 1);
      if in_out_set v then n_out.(b) <- n_out.(b) + 1
    in
    (* Undoes [add v b] step by step, in reverse order. *)
    let remove v b =
      if in_out_set v then n_out.(b) <- n_out.(b) - 1;
      Cdag.iter_succ g v (fun w ->
          let cw = color.(w) in
          if cw >= 0 && cw <> b then cross_edge b cw (-1));
      let into_b = into.(b) in
      Cdag.iter_pred g v (fun u ->
          let cu = color.(u) in
          let k = into_b.(u) - 1 in
          into_b.(u) <- k;
          if k = 0 && cu <> b then n_in.(b) <- n_in.(b) - 1;
          if cu = b then begin
            let was = in_out_set u in
            same.(u) <- same.(u) - 1;
            if in_out_set u && not was then n_out.(b) <- n_out.(b) + 1
          end
          else if cu >= 0 then cross_edge cu b (-1));
      if into_b.(v) > 0 then n_in.(b) <- n_in.(b) + 1;
      color.(v) <- -1
    in
    let rec fits b used = b = used || (n_in.(b) <= s && n_out.(b) <= s && fits (b + 1) used) in
    let node () =
      (match budget with None -> () | Some b -> Budget.tick b);
      incr nodes;
      Dmc_obs.Counter.incr c_nodes;
      if !nodes > max_nodes then
        raise
          (Optimal.Too_large
             (Printf.sprintf "Spartition.min_h_exact: more than %d search nodes" max_nodes))
    in
    (* Each leaf costs a fixed 1 + n/8 ticks, charged before its
       verdict.  The charge was sized for the O(n + e) [check] every
       leaf once ran; it no longer estimates the O(used) verdict, but it
       stays so that node budgets, anytime values and the goldens do not
       move. *)
    let leaf () = match budget with None -> () | Some b -> Budget.tick_n b (1 + (n / 8)) in
    (* Dead subtrees.  Below a prefix with a two-subset circuit no leaf
       is valid: cross-edge counts only grow on the way down.  Nor below
       a block with |In| > s when every non-input predecessor of a
       compute vertex has a smaller id ([order] is 1; it is 0 until
       [preds_first] checks the edges on first use, and 2 if one
       descends): such a predecessor is assigned before its successor,
       so it never joins the block later and |In| never shrinks.  [best]
       cannot change below a dead prefix, so the subtree's size has a
       closed form: with r vertices left and u < best blocks used,
         N(r, u) = 1 + u * N(r-1, u) + N(r-1, u+1)
       nodes, the same in ticks with a leaf costing 2 + n/8, and one
       node and one tick once u >= best. *)
    let order = ref 0 in
    let preds_first () =
      order := 1;
      Cdag.iter_edges g (fun u v ->
          if u > v && not (Cdag.is_input g u || Cdag.is_input g v) then order := 2);
      !order = 1
    in
    (* [fits_subtree r u] computes N(r, u) and T(r, u) into [sub_nodes]
       and [sub_ticks] when the subtree fits under [max_nodes] and does not
       spend the node budget; it is false as soon as a shallower N(d, u)
       or T(d, u), d <= r, does not fit (both grow with d once u >= 1).
       Diagonal d holds N(j, u + d - j) for j = 0 .. d in [dn] (ticks in
       [dt]), each entry built from the one before it and the previous
       diagonal's; only the last [best - u] entries are not 1.  Entries
       are capped at [sat], so [1 + k * a + b] (k < n') stays in range,
       and a capped count never fits.  The limits only tighten as the
       search goes on, so once N(d, u) or T(d, u) does not fit, no
       N(r, u) with r >= d does while [best] stays: [too_big] keeps that
       (u, d), and a walk down a subtree that does not fit costs O(1) per
       level until r < d. *)
    let sat = max_int / (n' + 2) in
    let dn = Array.make (n' + 1) 0 and dt = Array.make (n' + 1) 0 in
    let sub_nodes = ref 0 and sub_ticks = ref 0 and too_big = ref (0, max_int) in
    let fits_subtree r u =
      let lim = max_nodes - !nodes and span = !best - u in
      let rec diagonal d =
        let lo = Int.max 0 (d - span) in
        let old_n = ref dn.(lo) and old_t = ref dt.(lo) in
        dn.(lo) <- 1;
        dt.(lo) <- (if u + d - lo < !best then 2 + (n / 8) else 1);
        for j = lo + 1 to d do
          let k = u + d - j and on = dn.(j) and ot = dt.(j) in
          dn.(j) <- Int.min sat (1 + (k * !old_n) + dn.(j - 1));
          dt.(j) <- Int.min sat (1 + (k * !old_t) + dt.(j - 1));
          old_n := on;
          old_t := ot
        done;
        let nd = dn.(d) and td = dt.(d) in
        if
          nd > lim || nd = sat || td = sat
          || (match budget with None -> false | Some b -> Budget.spends_limit_within b td)
        then begin
          too_big := (u, d);
          false
        end
        else if d = r then begin
          sub_nodes := nd;
          sub_ticks := td;
          true
        end
        else diagonal (d + 1)
      in
      let u', d' = !too_big in
      (u <> u' || r < d') && diagonal 0
    in
    (* Charge the dead subtree with [r] vertices left and [u] blocks
       used: at once when it fits, else node by node as the enumeration
       would (each child that fits again at once), so a node limit or
       [max_nodes] trips at the same node with the same [spent]. *)
    let rec dead r u =
      if u >= !best then node ()
      else if fits_subtree r u then begin
        (match budget with None -> () | Some b -> Budget.replay b !sub_ticks);
        nodes := !nodes + !sub_nodes;
        Dmc_obs.Counter.add c_nodes !sub_nodes
      end
      else begin
        node ();
        if r = 0 then leaf ()
        else
          for c = 0 to u do
            dead (r - 1) (Int.max u (c + 1))
          done
      end
    in
    (* Assign vertices one at a time to an existing block or a fresh
       one (canonical set-partition enumeration), so the blocks of a
       complete assignment are exactly [0, used), none empty. *)
    let rec assign i used =
      node ();
      if used >= !best then ()
      else if i = n' then begin
        leaf ();
        if !circuits = 0 && fits 0 used then begin
          Dmc_obs.Histogram.observe h_block_count used;
          best := used;
          too_big := (0, max_int)
        end
      end
      else
        for c = 0 to Int.min used (n' - 1) do
          if Array.length into.(c) = 0 then begin
            into.(c) <- Array.make n 0;
            cross.(c) <- Array.make n' 0
          end;
          add vs.(i) c;
          let used' = Int.max used (c + 1) in
          if
            used' < !best
            && (!circuits > 0 || (n_in.(c) > s && (!order = 1 || (!order = 0 && preds_first ()))))
          then dead (n' - i - 1) used'
          else assign (i + 1) used';
          remove vs.(i) c
        done
    in
    assign 0 0;
    !best
  end

let max_subset_exact ?budget g ~s =
  let vs = compute_vertices g in
  let n' = Array.length vs in
  let n = Cdag.n_vertices g in
  if n' > 22 || n > 62 then
    raise (Optimal.Too_large "Spartition.max_subset_exact: graph too large");
  if n' = 0 then 0
  else
    Dmc_obs.Span.with_
      ~attrs:[ ("s", string_of_int s); ("n_compute", string_of_int n') ]
      "spartition.max_subset_exact"
    @@ fun () ->
    begin
    let popcount x =
      let rec go x acc = if x = 0 then acc else go (x lsr 1) (acc + (x land 1)) in
      go x 0
    in
    let full_bit = Array.map (fun v -> 1 lsl v) vs in
    let preds =
      Array.map (fun v -> Cdag.fold_pred g v (fun m u -> m lor (1 lsl u)) 0) vs
    in
    let succs =
      Array.map (fun v -> Cdag.fold_succ g v (fun m w -> m lor (1 lsl w)) 0) vs
    in
    let is_out = Array.map (Cdag.is_output g) vs in
    let best = ref 0 in
    for mask = 1 to (1 lsl n') - 1 do
      (match budget with None -> () | Some b -> Budget.tick b);
      Dmc_obs.Counter.incr c_masks;
      let size = popcount mask in
      if size > !best then begin
        let w_full = ref 0 and preds_union = ref 0 in
        for i = 0 to n' - 1 do
          if mask land (1 lsl i) <> 0 then begin
            w_full := !w_full lor full_bit.(i);
            preds_union := !preds_union lor preds.(i)
          end
        done;
        if popcount (!preds_union land lnot !w_full) <= s then begin
          let out = ref 0 in
          for i = 0 to n' - 1 do
            if
              mask land (1 lsl i) <> 0
              && (is_out.(i) || succs.(i) land lnot !w_full <> 0)
            then incr out
          done;
          if !out <= s then best := size
        end
      end
    done;
    !best
  end

let lemma1_bound ~s ~h = max 0 (s * (h - 1))

let corollary1_bound ~s ~n_compute ~u =
  if u <= 0 then invalid_arg "Spartition.corollary1_bound: u must be positive";
  let bound =
    ceil (float_of_int s *. ((float_of_int n_compute /. float_of_int u) -. 1.0))
  in
  max 0 (int_of_float bound)

let lower_bound_exact ?budget ?max_nodes g ~s =
  let h = min_h_exact ?budget ?max_nodes g ~s:(2 * s) in
  lemma1_bound ~s ~h

let lower_bound_u ?budget g ~s =
  let u = max_subset_exact ?budget g ~s:(2 * s) in
  if u = 0 then 0
  else corollary1_bound ~s ~n_compute:(Cdag.n_compute g) ~u
