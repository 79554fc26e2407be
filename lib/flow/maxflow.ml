module Bitset = Dmc_util.Bitset
module Budget = Dmc_util.Budget

let tick = function None -> () | Some b -> Budget.tick b
let c_bfs = Dmc_obs.Counter.make "dinic.bfs_rounds"
let c_aug = Dmc_obs.Counter.make "dinic.augmenting_paths"
let h_path_len = Dmc_obs.Histogram.make "dinic.path_len"

(* Edges are stored in pairs: edge [2k] and its residual twin [2k+1].
   [cap] holds the residual capacity, so flow on edge e equals the
   residual capacity of its twin.  The edge arrays grow by doubling;
   only the first [m] slots are live.  [level], [cursor] and [queue]
   are per-node scratch reused by every BFS round and every query. *)
type t = {
  n : int;
  mutable m : int;              (* live edge count *)
  mutable head : int array;     (* per edge: destination node *)
  mutable cap : int array;      (* per edge: residual capacity *)
  mutable next : int array;     (* per edge: next edge id out of the same node *)
  first : int array;            (* per node: first edge id, -1 when none *)
  level : int array;
  cursor : int array;
  queue : int array;
  (* the state {!restore} returns to *)
  mutable base_m : int;
  base_first : int array;
  mutable base_cap : int array;
}

let infinite = max_int / 4

let create n =
  let nodes = max n 1 in
  {
    n;
    m = 0;
    head = [||];
    cap = [||];
    next = [||];
    first = Array.make nodes (-1);
    level = Array.make nodes (-1);
    cursor = Array.make nodes (-1);
    queue = Array.make nodes 0;
    base_m = 0;
    base_first = Array.make nodes (-1);
    base_cap = [||];
  }

let n_nodes net = net.n

let grow net =
  let size = max 16 (2 * Array.length net.head) in
  let extend a = Array.append a (Array.make (size - Array.length a) 0) in
  net.head <- extend net.head;
  net.cap <- extend net.cap;
  net.next <- extend net.next

let push_edge net ~src ~dst ~cap =
  let id = net.m in
  if id = Array.length net.head then grow net;
  net.head.(id) <- dst;
  net.cap.(id) <- cap;
  net.next.(id) <- net.first.(src);
  net.first.(src) <- id;
  net.m <- id + 1;
  id

let add_edge net ~src ~dst ~cap =
  if src < 0 || src >= net.n || dst < 0 || dst >= net.n then
    invalid_arg "Maxflow.add_edge: node out of range";
  if cap < 0 then invalid_arg "Maxflow.add_edge: negative capacity";
  let id = push_edge net ~src ~dst ~cap in
  ignore (push_edge net ~src:dst ~dst:src ~cap:0);
  id

let check_edge where net id =
  if id < 0 || id >= net.m then invalid_arg (where ^ ": edge id out of range")

let set_capacity net id cap =
  check_edge "Maxflow.set_capacity" net id;
  if id land 1 = 1 then invalid_arg "Maxflow.set_capacity: residual twin";
  if cap < 0 then invalid_arg "Maxflow.set_capacity: negative capacity";
  net.cap.(id) <- cap

let snapshot net =
  net.base_m <- net.m;
  Array.blit net.first 0 net.base_first 0 (Array.length net.first);
  net.base_cap <- Array.sub net.cap 0 net.m

let restore net =
  net.m <- net.base_m;
  Array.blit net.base_first 0 net.first 0 (Array.length net.first);
  Array.blit net.base_cap 0 net.cap 0 net.base_m

(* Level graph by FIFO BFS from [src], one tick per dequeued node. *)
let bfs budget net ~src ~dst =
  let level = net.level and queue = net.queue in
  Array.fill level 0 (Array.length level) (-1);
  level.(src) <- 0;
  queue.(0) <- src;
  let qhead = ref 0 and qtail = ref 1 in
  while !qhead < !qtail do
    let u = queue.(!qhead) in
    incr qhead;
    tick budget;
    let e = ref net.first.(u) in
    while !e >= 0 do
      let v = net.head.(!e) in
      if net.cap.(!e) > 0 && level.(v) < 0 then begin
        level.(v) <- level.(u) + 1;
        queue.(!qtail) <- v;
        incr qtail
      end;
      e := net.next.(!e)
    done
  done;
  level.(dst) >= 0

(* One augmenting path along the level graph, one tick per edge tried. *)
let rec dfs budget net ~dst u pushed =
  if u = dst then pushed
  else begin
    let result = ref 0 in
    while !result = 0 && net.cursor.(u) >= 0 do
      tick budget;
      let e = net.cursor.(u) in
      let v = net.head.(e) in
      let residual = net.cap.(e) in
      if residual > 0 && net.level.(v) = net.level.(u) + 1 then begin
        let sent = dfs budget net ~dst v (min pushed residual) in
        if sent > 0 then begin
          net.cap.(e) <- residual - sent;
          net.cap.(e lxor 1) <- net.cap.(e lxor 1) + sent;
          result := sent
        end
        else net.cursor.(u) <- net.next.(e)
      end
      else net.cursor.(u) <- net.next.(e)
    done;
    !result
  end

let max_flow ?budget net ~src ~dst =
  if src = dst then invalid_arg "Maxflow.max_flow: src = dst";
  let total = ref 0 in
  while bfs budget net ~src ~dst do
    Dmc_obs.Counter.incr c_bfs;
    Array.blit net.first 0 net.cursor 0 (Array.length net.first);
    let rec pump () =
      let sent = dfs budget net ~dst src infinite in
      if sent > 0 then begin
        Dmc_obs.Counter.incr c_aug;
        (* level.(dst) is the length of every augmenting path in this
           phase — Dinic only sends flow along level-respecting paths *)
        Dmc_obs.Histogram.observe h_path_len net.level.(dst);
        total := !total + sent;
        pump ()
      end
    in
    pump ()
  done;
  !total

let flow_on net id =
  check_edge "Maxflow.flow_on" net id;
  net.cap.(id lxor 1)

let iter_out net ~node f =
  let e = ref net.first.(node) in
  while !e >= 0 do
    if !e land 1 = 0 then f ~id:!e ~dst:net.head.(!e);
    e := net.next.(!e)
  done

let edge_dst net id =
  check_edge "Maxflow.edge_dst" net id;
  net.head.(id)

let min_cut_source_side net ~src =
  let side = Bitset.create net.n in
  Bitset.add side src;
  let stack = Stack.create () in
  Stack.push src stack;
  while not (Stack.is_empty stack) do
    let u = Stack.pop stack in
    let e = ref net.first.(u) in
    while !e >= 0 do
      let v = net.head.(!e) in
      if net.cap.(!e) > 0 && not (Bitset.mem side v) then begin
        Bitset.add side v;
        Stack.push v stack
      end;
      e := net.next.(!e)
    done
  done;
  side
