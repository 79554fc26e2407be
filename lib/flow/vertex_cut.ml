module Bitset = Dmc_util.Bitset
module Budget = Dmc_util.Budget
module Cdag = Dmc_cdag.Cdag

let c_bfs = Dmc_obs.Counter.make "dinic.bfs_rounds"
let c_aug = Dmc_obs.Counter.make "dinic.augmenting_paths"
let h_path_len = Dmc_obs.Histogram.make "dinic.path_len"

let infinite = max_int / 4

type result = {
  size : int;
  cut : Cdag.vertex list;
  source_side : Bitset.t;
}

(* The split network as CSR slots.  Nodes: v_in = 2v, v_out = 2v+1,
   source 2n, sink 2n+1.  Node u owns the slots [off.(u), off.(u+1)):

   - v_in:  a front slot, the twins of its in-edges by predecessor
            descending, then its split edge (last);
   - v_out: a front slot, its out-edges by successor descending, then
            its split twin (last);
   - the source and the sink: [n] slots each, filled per query.

   A slot holds its head node, its residual capacity and its twin's
   slot.  The front slot carries the node's terminal edge for the
   current query — the twin back to the source at a source vertex's
   v_in, the edge to the sink at a sink vertex's v_out — and lies
   outside the live range [lo.(u), hi.(u)) otherwise.  Every node's
   live slots are in the order a linked-list network visits the edges
   of the same query when it adds the split edges by vertex, the CDAG
   edges by source then successor, then the source edges in [from_set]
   order and the sink edges in [to_set] order (each node's list being
   newest first).  So Dinic's BFS dequeues and DFS edge tries, hence
   its budget ticks, are the ones that network makes. *)
type prepared = {
  n : int;
  off : int array;
  head : int array;
  cap : int array;
  twin : int array;
  base : int array;  (* capacities of the vertex slots, [0, off.(2n)) *)
  lo : int array;
  hi : int array;
  level : int array;  (* BFS level plus [floor]; below [floor]: unreached *)
  mutable floor : int;
  cursor : int array;
  queue : int array;  (* the BFS queue, then the DFS path's nodes *)
  (* the wavefront query's reachability marks, search stack, and the
     range of ids its last search marked *)
  mark : int array;
  mutable stamp : int;
  stack : int array;
  mutable low : int;
  mutable high : int;
}

let v_in v = 2 * v
let v_out v = (2 * v) + 1
let source p = 2 * p.n
let sink p = (2 * p.n) + 1
let split_slot p v = p.off.(v_out v) - 1

let prepare g =
  let n = Cdag.n_vertices g in
  let nodes = (2 * n) + 2 in
  let off = Array.make (nodes + 1) 0 in
  for v = 0 to n - 1 do
    off.(v_out v) <- off.(v_in v) + 2 + Cdag.in_degree g v;
    off.(v_in (v + 1)) <- off.(v_out v) + 2 + Cdag.out_degree g v
  done;
  off.((2 * n) + 1) <- off.(2 * n) + n;
  off.(nodes) <- off.((2 * n) + 1) + n;
  let slots = off.(nodes) in
  let head = Array.make slots 0 and cap = Array.make slots 0 in
  let twin = Array.make slots 0 in
  let link e ~dst ~c t ~back =
    head.(e) <- dst;
    cap.(e) <- c;
    twin.(e) <- t;
    head.(t) <- back;
    cap.(t) <- 0;
    twin.(t) <- e
  in
  (* [next_in.(w)]: w's lowest in-twin slot filled so far; sources in
     ascending order fill each v_in from the back *)
  let next_in = Array.init n (fun w -> off.(v_out w) - 1) in
  for u = 0 to n - 1 do
    let split_twin = off.(v_in (u + 1)) - 1 in
    link (off.(v_out u) - 1) ~dst:(v_out u) ~c:1 split_twin ~back:(v_in u);
    let next_out = ref split_twin in
    Cdag.iter_succ g u (fun w ->
        decr next_out;
        next_in.(w) <- next_in.(w) - 1;
        link !next_out ~dst:(v_in w) ~c:infinite next_in.(w) ~back:(v_out u))
  done;
  let lo = Array.init nodes (fun u -> if u < 2 * n then off.(u) + 1 else off.(u)) in
  {
    n;
    off;
    head;
    cap;
    twin;
    base = Array.sub cap 0 off.(2 * n);
    lo;
    hi = Array.init nodes (fun u -> if u < 2 * n then off.(u + 1) else off.(u));
    level = Array.make nodes (-1);
    floor = 0;
    cursor = Array.make nodes 0;
    queue = Array.make nodes 0;
    mark = Array.make n 0;
    stamp = 0;
    stack = Array.make n 0;
    low = 0;
    high = -1;
  }

let check_vertex p v =
  if v < 0 || v >= p.n then invalid_arg "Vertex_cut: vertex out of range"

(* Back to the base network: release the front slots the last query
   held, empty the source and the sink, and restore every vertex slot's
   capacity with one blit. *)
let release p terminal =
  for s = p.off.(terminal) to p.hi.(terminal) - 1 do
    let u = p.head.(s) in
    p.lo.(u) <- p.off.(u) + 1
  done;
  p.hi.(terminal) <- p.off.(terminal)

let reset p =
  release p (source p);
  release p (sink p);
  Array.blit p.base 0 p.cap 0 (Array.length p.base)

let uncut p v = p.cap.(split_slot p v) <- infinite

(* One terminal edge between the next free slot [s] of [terminal] and
   the front slot [f] of [node]: the edge leaves the source ([s] holds
   its capacity) or enters the sink ([f] does). *)
let attach where p ~terminal ~node ~slot_cap ~front_cap =
  let f = p.off.(node) in
  if p.lo.(node) = f then invalid_arg (where ^ ": repeated terminal vertex");
  let s = p.hi.(terminal) in
  p.hi.(terminal) <- s + 1;
  p.head.(s) <- node;
  p.cap.(s) <- slot_cap;
  p.twin.(s) <- f;
  p.head.(f) <- terminal;
  p.cap.(f) <- front_cap;
  p.twin.(f) <- s;
  p.lo.(node) <- f

let add_source where p v c =
  attach where p ~terminal:(source p) ~node:(v_in v) ~slot_cap:c ~front_cap:0

let add_sink where p v c =
  attach where p ~terminal:(sink p) ~node:(v_out v) ~slot_cap:0 ~front_cap:c

(* Slot and node indices are valid by construction, and every vertex a
   caller passes is range-checked on entry, so Dinic's loops index
   without bounds checks. *)
external ( .!() ) : int array -> int -> int = "%array_unsafe_get"
external ( .!()<- ) : int array -> int -> int -> unit = "%array_unsafe_set"

(* The budget meter.  Ticks are counted in a local [pending] while
   under [room], the guard's {!Budget.headroom}; the tick past it
   charges them all with {!Budget.replay}, which raises or polls
   exactly where single ticks would.  Without a budget [room] is
   [max_int] and nothing is charged. *)
let room_of = function None -> max_int | Some b -> Budget.headroom b

let charge budget k =
  match budget with
  | None -> max_int
  | Some b ->
      Budget.replay b k;
      Budget.headroom b

let settle budget k = match budget with None -> () | Some b -> Budget.replay b k

(* Dinic from node [src] to node [dst]: FIFO BFS for the level graph,
   one tick per dequeue; then augmenting paths by DFS with a
   current-arc cursor per node, one tick per slot tried.  A slot stays
   current after a successful push, so the next search tries it again
   — the control flow of the recursive search this replaces, kept
   iterative here with the path's nodes on [queue].  Each BFS raises
   [floor] past every level the last one set, so no array is cleared
   between rounds, and sets the cursor of each node it reaches: the DFS
   visits no other. *)
let run ?budget p ~src ~dst =
  let head = p.head and cap = p.cap and twin = p.twin in
  let lo = p.lo and hi = p.hi and level = p.level and cursor = p.cursor in
  let queue = p.queue and path = p.queue in
  let nodes = Array.length level in
  let pending = ref 0 and room = ref (room_of budget) in
  let total = ref 0 and more = ref true in
  match
    while !more do
      let floor = p.floor + nodes in
      p.floor <- floor;
      level.!(src) <- floor;
      cursor.!(src) <- lo.!(src);
      queue.!(0) <- src;
      let qhead = ref 0 and qtail = ref 1 in
      while !qhead < !qtail do
        let u = queue.!(!qhead) in
        incr qhead;
        if !pending < !room then incr pending
        else begin
          let k = !pending + 1 in
          pending := 0;
          room := charge budget k
        end;
        let next = level.!(u) + 1 in
        for e = lo.!(u) to hi.!(u) - 1 do
          let v = head.!(e) in
          if cap.!(e) > 0 && level.!(v) < floor then begin
            level.!(v) <- next;
            cursor.!(v) <- lo.!(v);
            queue.!(!qtail) <- v;
            incr qtail
          end
        done
      done;
      if level.!(dst) < floor then more := false
      else begin
        Dmc_obs.Counter.incr c_bfs;
        let pumping = ref true in
        while !pumping do
          let depth = ref 0 and sent = ref 0 and searching = ref true in
          path.!(0) <- src;
          while !searching do
            let u = path.!(!depth) in
            if u = dst then begin
              let pushed = ref infinite in
              for i = 0 to !depth - 1 do
                pushed := Int.min !pushed cap.!(cursor.!(path.!(i)))
              done;
              for i = 0 to !depth - 1 do
                let e = cursor.!(path.!(i)) in
                cap.!(e) <- cap.!(e) - !pushed;
                cap.!(twin.!(e)) <- cap.!(twin.!(e)) + !pushed
              done;
              sent := !pushed;
              searching := false
            end
            else begin
              (* try u's slots from its cursor until one is admissible *)
              let last = hi.!(u) and want = level.!(u) + 1 in
              let e = ref cursor.!(u) and next = ref (-1) in
              while !next < 0 && !e < last do
                if !pending < !room then incr pending
                else begin
                  let k = !pending + 1 in
                  pending := 0;
                  room := charge budget k
                end;
                let v = head.!(!e) in
                if cap.!(!e) > 0 && level.!(v) = want then next := v else incr e
              done;
              cursor.!(u) <- !e;
              if !next >= 0 then begin
                incr depth;
                path.!(!depth) <- !next
              end
              else if !depth = 0 then searching := false
              else begin
                (* dead end: the parent moves past the slot into [u] *)
                decr depth;
                let parent = path.!(!depth) in
                cursor.!(parent) <- cursor.!(parent) + 1
              end
            end
          done;
          if !sent > 0 then begin
            Dmc_obs.Counter.incr c_aug;
            (* level.(dst) - floor is the length of every augmenting
               path in this phase *)
            Dmc_obs.Histogram.observe h_path_len (level.!(dst) - floor);
            total := !total + !sent
          end
          else pumping := false
        done
      end
    done
  with
  | () ->
      settle budget !pending;
      !total
  | exception e ->
      settle budget !pending;
      raise e

(* ------------------------------------------------------------------ *)
(* Configurations                                                      *)

(* A terminal's slots list the edges newest first, as a linked-list
   network does, so each list fills its terminal from its last
   vertex. *)
let load where p ~uncuttable ~from_set ~source_cap ~to_set ~sink_cap =
  reset p;
  List.iter
    (fun v ->
      check_vertex p v;
      uncut p v)
    uncuttable;
  List.iter
    (fun v ->
      check_vertex p v;
      add_source where p v source_cap)
    (List.rev from_set);
  List.iter
    (fun v ->
      check_vertex p v;
      add_sink where p v sink_cap)
    (List.rev to_set)

(* A [to_set] vertex is in [from_set] iff its v_in front slot is live. *)
let check_terminals where p ~from_set ~to_set =
  if from_set = [] || to_set = [] then invalid_arg (where ^ ": empty terminal set");
  if List.exists (fun v -> p.lo.(v_in v) = p.off.(v_in v)) to_set then
    invalid_arg (where ^ ": terminal sets intersect")

let cut_flow where ?budget p ~from_set ~to_set ~uncuttable =
  load where p ~uncuttable ~from_set ~source_cap:infinite ~to_set ~sink_cap:infinite;
  check_terminals where p ~from_set ~to_set;
  run ?budget p ~src:(source p) ~dst:(sink p)

let cut_size ?budget p ~from_set ~to_set ?(uncuttable = []) () =
  cut_flow "Vertex_cut.cut_size" ?budget p ~from_set ~to_set ~uncuttable

(* Mark with [stamp] every vertex [x] reaches along out-edges
   ([forward]) or in-edges, widening [p.low, p.high] over them.  Both
   searches read the slots themselves: a v_out's out-edges and a v_in's
   in-twins sit between its front slot and its last slot, and their
   heads are v_in w and v_out u. *)
let mark_reach p x stamp ~forward =
  let mark = p.mark and stack = p.stack and head = p.head and off = p.off in
  let top = ref 1 in
  stack.(0) <- x;
  while !top > 0 do
    decr top;
    let node = (2 * stack.(!top)) + if forward then 1 else 0 in
    for e = off.(node) + 1 to off.(node + 1) - 2 do
      let w = head.(e) lsr 1 in
      if mark.(w) <> stamp then begin
        mark.(w) <- stamp;
        if w < p.low then p.low <- w;
        if w > p.high then p.high <- w;
        stack.(!top) <- w;
        incr top
      end
    done
  done

(* x's Lemma-2 query, its terminal sets filled in one descending scan
   of the marked ids: Anc(x) descending and then x at the source,
   Desc(x) descending at the sink — the order [cut_size
   ~from_set:(x :: Anc(x)) ~to_set:Desc(x)] gives with both sets
   ascending. *)
let wavefront_cut ?budget p x =
  let where = "Vertex_cut.wavefront_cut" in
  check_vertex p x;
  (* no out-edge slot between v_out's front slot and its split twin *)
  if p.off.(v_out x + 1) - p.off.(v_out x) = 2 then
    invalid_arg (where ^ ": empty terminal set");
  reset p;
  p.stamp <- p.stamp + 2;
  p.low <- x;
  p.high <- x;
  let desc = p.stamp and anc = p.stamp + 1 in
  mark_reach p x desc ~forward:true;
  mark_reach p x anc ~forward:false;
  for v = p.high downto p.low do
    let m = p.mark.(v) in
    if m = anc then add_source where p v infinite
    else if m = desc then begin
      uncut p v;
      add_sink where p v infinite
    end
  done;
  add_source where p x infinite;
  run ?budget p ~src:(source p) ~dst:(sink p)

let min_vertex_cut ?budget g ~from_set ~to_set ?(uncuttable = []) () =
  let p = prepare g in
  let size = cut_flow "Vertex_cut.min_vertex_cut" ?budget p ~from_set ~to_set ~uncuttable in
  (* The last BFS found no path: its levels mark exactly the nodes the
     source reaches in the final residual network.  A vertex is in the
     cut when its split edge crosses that boundary. *)
  let reached node = p.level.(node) >= p.floor in
  let cut = ref [] in
  for v = p.n - 1 downto 0 do
    if reached (v_in v) && not (reached (v_out v)) then cut := v :: !cut
  done;
  let source_side = Bitset.create p.n in
  for v = 0 to p.n - 1 do
    if reached (v_in v) then Bitset.add source_side v
  done;
  { size; cut = !cut; source_side }

let path_witness ?budget g ~from_set ~to_set ?(uncuttable = []) () =
  let where = "Vertex_cut.path_witness" in
  let p = prepare g in
  load where p ~uncuttable ~from_set ~source_cap:1 ~to_set ~sink_cap:infinite;
  check_terminals where p ~from_set ~to_set;
  let src = source p and dst = sink p in
  let size = run ?budget p ~src ~dst in
  (* Decompose the flow into unit paths: walk from the source along
     forward slots with flow left, in slot order, consuming one unit
     per step.  A forward slot's flow is its twin's residual.  The
     forward slots are every source slot, a v_in's split edge, and a
     v_out's live slots but its split twin. *)
  let forward node =
    if node = src then (p.lo.(node), p.hi.(node) - 1)
    else if node land 1 = 0 then (p.hi.(node) - 1, p.hi.(node) - 1)
    else (p.lo.(node), p.hi.(node) - 2)
  in
  let next_hop node =
    let first, last = forward node in
    let rec find e =
      if e > last then None
      else if p.cap.(p.twin.(e)) > 0 then Some e
      else find (e + 1)
    in
    find first
  in
  let extract () =
    let rec walk node acc =
      if node = dst then List.rev acc
      else
        match next_hop node with
        | None ->
            Budget.internal_error ~where
              "flow decomposition stuck at node %d (n=%d, flow=%d)" node p.n size
        | Some e ->
            let t = p.twin.(e) in
            p.cap.(t) <- p.cap.(t) - 1;
            let next = p.head.(e) in
            (* record the CDAG vertex when crossing a split edge *)
            let split = node land 1 = 0 && node < src && next = node + 1 in
            walk next (if split then (node / 2) :: acc else acc)
    in
    walk src []
  in
  List.init size (fun _ -> extract ())

let disjoint_paths ?budget g ~src ~dst =
  if src = dst then invalid_arg "Vertex_cut.disjoint_paths: src = dst";
  let where = "Vertex_cut.disjoint_paths" in
  let p = prepare g in
  load where p ~uncuttable:[ src; dst ] ~from_set:[] ~source_cap:0 ~to_set:[] ~sink_cap:0;
  (* a direct edge is one path with no interior vertex *)
  for e = p.lo.(v_out src) to p.hi.(v_out src) - 2 do
    if p.head.(e) = v_in dst then p.cap.(e) <- 1
  done;
  run ?budget p ~src:(v_out src) ~dst:(v_in dst)

let disjoint_set_paths g ~from_set ~to_set =
  let p = prepare g in
  load "Vertex_cut.disjoint_set_paths" p ~uncuttable:[] ~from_set ~source_cap:1 ~to_set
    ~sink_cap:1;
  run p ~src:(source p) ~dst:(sink p)
