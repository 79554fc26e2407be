module Budget = Dmc_util.Budget
module Cdag = Dmc_cdag.Cdag

let popcount =
  let rec go x acc = if x = 0 then acc else go (x lsr 1) (acc + (x land 1)) in
  fun x -> go x 0

let s_span ?budget ?(max_nodes = 2_000_000) g ~s =
  if s <= 0 then invalid_arg "Span.s_span: s must be positive";
  let n = Cdag.n_vertices g in
  if n > 20 then raise (Optimal.Too_large "Span.s_span: more than 20 vertices");
  let preds =
    Array.init n (fun v -> Cdag.fold_pred g v (fun m u -> m lor (1 lsl u)) 0)
  in
  let input_mask =
    List.fold_left (fun m v -> m lor (1 lsl v)) 0 (Cdag.inputs g)
  in
  let cap = min s n in
  let memo = Hashtbl.create 4096 in
  let nodes = ref 0 in
  (* Best number of additional fires from (fired, red).  [fired] marks
     white-pebbled vertices (initial placements included), which can
     never fire again. *)
  let rec best fired red =
    let key = (fired lsl n) lor red in
    match Hashtbl.find_opt memo key with
    | Some x -> x
    | None ->
        (match budget with None -> () | Some b -> Budget.tick b);
        incr nodes;
        if !nodes > max_nodes then
          raise (Optimal.Too_large "Span.s_span: state budget exhausted");
        let full = popcount red >= s in
        let result = ref 0 in
        for v = 0 to n - 1 do
          let bit = 1 lsl v in
          if
            fired land bit = 0
            && input_mask land bit = 0
            && preds.(v) land lnot red = 0
          then
            if not full then
              result := Int.max !result (1 + best (fired lor bit) (red lor bit))
            else begin
              (* evict any non-operand pebble *)
              let victims = red land lnot preds.(v) in
              for r = 0 to n - 1 do
                if victims land (1 lsl r) <> 0 then
                  result :=
                    Int.max !result
                      (1 + best (fired lor bit) ((red land lnot (1 lsl r)) lor bit))
              done
            end
        done;
        Hashtbl.replace memo key !result;
        !result
  in
  (* Enumerate starting placements of at most [cap] pebbles.  Fewer can
     help: an initial pebble marks its vertex as already evaluated, so
     saturating the compute vertices would leave nothing to fire. *)
  let best_span = ref 0 in
  let rec choose from chosen count =
    if from = n || count = cap then best_span := Int.max !best_span (best chosen chosen)
    else begin
      choose (from + 1) chosen count;
      choose (from + 1) (chosen lor (1 lsl from)) (count + 1)
    end
  in
  choose 0 0 0;
  !best_span

let lower_bound ?budget ?max_nodes g ~s =
  let rho = s_span ?budget ?max_nodes g ~s:(2 * s) in
  if rho = 0 then 0
  else begin
    let n' = Cdag.n_compute g in
    let bound =
      ceil (float_of_int s *. ((float_of_int n' /. float_of_int rho) -. 1.0))
    in
    max 0 (int_of_float bound)
  end
