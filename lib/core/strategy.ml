module Bitset = Dmc_util.Bitset
module Budget = Dmc_util.Budget
module Cdag = Dmc_cdag.Cdag
module Topo = Dmc_cdag.Topo
module Hierarchy = Dmc_machine.Hierarchy

type policy = Lru | Belady

let c_belady_evict = Dmc_obs.Counter.make "strategy.evictions.belady"
let c_lru_evict = Dmc_obs.Counter.make "strategy.evictions.lru"
let h_evict_distance = Dmc_obs.Histogram.make "strategy.evict_distance"
let c_mp_remote = Dmc_obs.Counter.make "strategy.mp.remote_stores"
let c_pc_absorbs = Dmc_obs.Counter.make "strategy.pc.absorbs"

let default_order g =
  Topo.order g |> Array.to_list
  |> List.filter (fun v -> not (Cdag.is_input g v))
  |> Array.of_list

let dfs_order g =
  let n = Cdag.n_vertices g in
  let visited = Bitset.create n in
  let order = Dmc_util.Intvec.create ~initial_capacity:n () in
  let rec visit v =
    if not (Bitset.mem visited v) then begin
      Bitset.add visited v;
      Cdag.iter_pred g v visit;
      if not (Cdag.is_input g v) then Dmc_util.Intvec.push order v
    end
  in
  List.iter visit (Cdag.outputs g);
  Cdag.iter_vertices g (fun v -> if not (Cdag.is_input g v) then visit v);
  Dmc_util.Intvec.to_array order

(* [order] (default: {!default_order}) once checked to be a topological
   permutation of the non-input vertices. *)
let resolve_order g order =
  let order = match order with Some o -> o | None -> default_order g in
  let n = Cdag.n_vertices g in
  let pos = Array.make n (-1) in
  if Array.length order <> Cdag.n_compute g then
    invalid_arg "Strategy: order must cover exactly the non-input vertices";
  Array.iteri
    (fun i v ->
      if v < 0 || v >= n || Cdag.is_input g v then
        invalid_arg "Strategy: order contains an input or bad vertex";
      if pos.(v) >= 0 then invalid_arg "Strategy: duplicate vertex in order";
      pos.(v) <- i)
    order;
  Cdag.iter_edges g (fun u v ->
      if pos.(u) >= 0 && pos.(v) >= 0 && pos.(u) >= pos.(v) then
        invalid_arg "Strategy: order is not topological");
  order

(* ------------------------------------------------------------------ *)
(* The walk and the victim rule every policy scheduler shares          *)

(* One pass over the compute order: the ascending positions at which
   each value is consumed, a cursor past the uses already served, each
   value's last touch (for LRU), the values the vertex in flight pins,
   and the position [pos] of that vertex. *)
type walk = {
  order : Cdag.vertex array;
  uses : int array array;
  cursor : int array;
  last_use : int array;
  pinned : Bitset.t;
  mutable clock : int;
  mutable pos : int;
}

let no_use = max_int

let walk g order =
  let order = resolve_order g order in
  let n = Cdag.n_vertices g in
  let uses = Array.make n [] in
  Array.iteri
    (fun i v -> Cdag.iter_pred g v (fun p -> uses.(p) <- i :: uses.(p)))
    order;
  {
    order;
    uses = Array.map (fun l -> Array.of_list (List.rev l)) uses;
    cursor = Array.make n 0;
    last_use = Array.make n 0;
    pinned = Bitset.create n;
    clock = 0;
    pos = 0;
  }

let next_use w v =
  let u = w.uses.(v) and c = w.cursor.(v) in
  if c < Array.length u then u.(c) else no_use

let touch w v =
  w.clock <- w.clock + 1;
  w.last_use.(v) <- w.clock

(* Fire the order: [fire i v preds] plays the vertex at position [i],
   then every operand's cursor moves past [i] and [release i v preds]
   drops what died.  [budget] is ticked once per fired vertex. *)
let run_walk ?budget g w ~fire ~release =
  Array.iteri
    (fun i v ->
      (match budget with None -> () | Some b -> Budget.tick b);
      w.pos <- i;
      let preds = Cdag.pred_list g v in
      fire i v preds;
      List.iter
        (fun p ->
          let u = w.uses.(p) in
          while w.cursor.(p) < Array.length u && u.(w.cursor.(p)) <= i do
            w.cursor.(p) <- w.cursor.(p) + 1
          done)
        preds;
      release i v preds)
    w.order

(* The values resident in one fast memory of [s] words (its callers
   make room before they admit): [slot.(v)] is [v]'s index in [dense],
   or -1, so membership, admission and removal are O(1) and a victim
   scan visits the at most [s] residents, not all [n] vertices. *)
type resident = { slot : int array; dense : int array; mutable size : int }

let resident n ~s = { slot = Array.make n (-1); dense = Array.make (min n s) 0; size = 0 }
let is_resident r v = r.slot.(v) >= 0

let admit r v =
  if r.slot.(v) < 0 then begin
    r.slot.(v) <- r.size;
    r.dense.(r.size) <- v;
    r.size <- r.size + 1
  end

let discard r v =
  let i = r.slot.(v) in
  if i >= 0 then begin
    let last = r.dense.(r.size - 1) in
    r.dense.(i) <- last;
    r.slot.(last) <- i;
    r.slot.(v) <- -1;
    r.size <- r.size - 1
  end

(* The unpinned resident of [r] with the highest score, the smallest
   vertex among equals: under Belady the furthest next use, a dead value
   scoring [dead v]; under LRU the oldest touch.  [-1] when every
   resident is pinned. *)
let victim w policy ~dead r =
  let best = ref (-1) and best_score = ref min_int in
  for i = 0 to r.size - 1 do
    let v = r.dense.(i) in
    if not (Bitset.mem w.pinned v) then begin
      let score =
        match policy with
        | Belady ->
            let nu = next_use w v in
            if nu = no_use then dead v else nu
        | Lru -> -w.last_use.(v)
      in
      if score > !best_score || (score = !best_score && v < !best) then begin
        best_score := score;
        best := v
      end
    end
  done;
  !best

(* ------------------------------------------------------------------ *)
(* The p-processor policy cache                                        *)

(* How a game spells the cache's data moves; single-processor games
   ignore the processor. *)
type 'm spelling = {
  load : int -> Cdag.vertex -> 'm;
  store : int -> Cdag.vertex -> 'm;
  delete : int -> Cdag.vertex -> 'm;
}

let rb =
  {
    load = (fun _ v -> Rb_game.Load v);
    store = (fun _ v -> Rb_game.Store v);
    delete = (fun _ v -> Rb_game.Delete v);
  }

let mp =
  {
    load = (fun proc v -> Mp_game.Load { proc; v });
    store = (fun proc v -> Mp_game.Store { proc; v });
    delete = (fun proc v -> Mp_game.Delete { proc; v });
  }

let pc =
  {
    load = (fun _ v -> Pc_game.Load v);
    store = (fun _ v -> Pc_game.Store v);
    delete = (fun _ v -> Pc_game.Delete v);
  }

(* [p] private [s]-word fast memories over one slow memory.  Operands
   are loaded on demand; policy-chosen victims still live (or outputs
   not yet blue) are stored before deletion; dead values are dropped as
   soon as their last consumer fires; a value needed on a processor
   other than its producer is published through slow memory.  Only the
   firing processor evicts, so one pinned set serves them all.  Every
   move goes to the sink [emit]. *)
type 'm cache = {
  g : Cdag.t;
  s : int;
  policy : policy;
  name : string;  (* the scheduler, for span and failure texts *)
  sequential : bool;  (* only the sequential game feeds the eviction metrics *)
  spell : 'm spelling;
  emit : 'm -> unit;
  w : walk;
  red : resident array;
  blue : Bitset.t;
  loaded : Bitset.t;
  dead : Cdag.vertex -> int;
}

let store c q v =
  c.emit (c.spell.store q v);
  Bitset.add c.blue v

let load c q v =
  c.emit (c.spell.load q v);
  admit c.red.(q) v;
  Bitset.add c.loaded v

(* Remove [v] from [q], storing it first when it is [live] or an output
   slow memory lacks. *)
let drop c q v ~live =
  if (live || Cdag.is_output c.g v) && not (Bitset.mem c.blue v) then store c q v;
  c.emit (c.spell.delete q v);
  discard c.red.(q) v

let evict c q =
  let v = victim c.w c.policy ~dead:c.dead c.red.(q) in
  if v < 0 then failwith ("Strategy." ^ c.name ^ ": S too small for the operand set");
  let nu = next_use c.w v in
  if c.sequential then begin
    Dmc_obs.Counter.incr
      (match c.policy with Belady -> c_belady_evict | Lru -> c_lru_evict);
    (* Compute steps until the victim is needed again; dead victims are
       not observed, so the distribution covers only evictions that
       force a reload. *)
    if nu <> no_use then Dmc_obs.Histogram.observe h_evict_distance (nu - c.w.pos)
  end;
  drop c q v ~live:(nu <> no_use)

let make_room c q = while c.red.(q).size >= c.s do evict c q done

(* The first processor holding [v] red. *)
let holder c what v =
  let p = Array.length c.red in
  let rec go r =
    if r = p then
      Budget.internal_error ~where:("Strategy." ^ c.name)
        "%s %d lost (n=%d, p=%d, s=%d, clock=%d)" what v (Cdag.n_vertices c.g) p c.s
        c.w.clock
    else if is_resident c.red.(r) v then r
    else go (r + 1)
  in
  go 0

(* Bring an operand into [q]'s fast memory.  A value neither blue nor
   resident on [q] still lives red on its producer: that processor
   publishes it (one store, the communication), then [q] loads it. *)
let bring_in c q v =
  if not (is_resident c.red.(q) v) then begin
    if not (Bitset.mem c.blue v) then begin
      let r = holder c "operand" v in
      Dmc_obs.Counter.incr c_mp_remote;
      store c r v
    end;
    make_room c q;
    load c q v
  end;
  touch c.w v

let release c q v =
  if is_resident c.red.(q) v && next_use c.w v = no_use then drop c q v ~live:false

(* Fire [v] on [q]: pin the operands already resident, fault the rest
   in, make room for the result. *)
let compute mk c q v preds =
  let pinned = c.w.pinned in
  List.iter (fun u -> if is_resident c.red.(q) u then Bitset.add pinned u) preds;
  List.iter
    (fun u ->
      bring_in c q u;
      Bitset.add pinned u)
    preds;
  make_room c q;
  c.emit (mk q v);
  admit c.red.(q) v;
  touch c.w v;
  List.iter (Bitset.remove pinned) preds

(* The partial-computation firing: [v] is an accumulator that absorbs
   its operands one at a time, so only it and the operand in flight are
   pinned and two red pebbles suffice for any in-degree. *)
let absorb c _ v preds =
  let pinned = c.w.pinned in
  make_room c 0;
  c.emit (Pc_game.Begin v);
  admit c.red.(0) v;
  Bitset.add pinned v;
  List.iter
    (fun u ->
      bring_in c 0 u;
      Bitset.add pinned u;
      c.emit (Pc_game.Absorb { v; pred = u });
      Dmc_obs.Counter.incr c_pc_absorbs;
      Bitset.remove pinned u)
    preds;
  c.emit (Pc_game.Finish v);
  touch c.w v;
  Bitset.remove pinned v

(* Play the cache game of scheduler [name] over the order into [emit],
   firing each vertex on processor [i mod p] with [fire]; outputs still
   resident then reach slow memory and never-used inputs are read once
   (the white-pebble completion rule). *)
let play ?budget ~name ~attrs ~sequential spell ?(policy = Belady) ?order g ~p ~s
    ~fire emit =
  Dmc_obs.Span.with_
    ~attrs:(("policy", match policy with Belady -> "belady" | Lru -> "lru") :: attrs)
    ("strategy." ^ name)
  @@ fun () ->
  let n = Cdag.n_vertices g in
  let blue = Bitset.create n in
  List.iter (Bitset.add blue) (Cdag.inputs g);
  let c =
    {
      g; s; policy; name; sequential; spell; emit;
      w = walk g order;
      red = Array.init p (fun _ -> resident n ~s);
      blue;
      loaded = Bitset.create n;
      (* among dead values, prefer those that need no store *)
      dead =
        (fun v ->
          if Bitset.mem blue v || not (Cdag.is_output g v) then max_int else max_int - 1);
    }
  in
  run_walk ?budget g c.w
    ~fire:(fun i v preds -> fire c (i mod p) v preds)
    ~release:(fun i v preds ->
      List.iter (release c (i mod p)) preds;
      release c (i mod p) v);
  List.iter
    (fun v -> if not (Bitset.mem c.blue v) then store c (holder c "output" v) v)
    (Cdag.outputs g);
  List.iter
    (fun v ->
      if not (Bitset.mem c.loaded v) then begin
        make_room c 0;
        load c 0 v;
        drop c 0 v ~live:false
      end)
    (Cdag.inputs g)

(* The two sinks.  [collect] keeps a game's moves in order; [checked]
   plays them in the game's own checker as they are emitted and returns
   its stats, so a count is never reported for a move list the rules
   reject (that would be a bug here, not a property of the graph). *)
let collect game =
  let moves = ref [] in
  game (fun m -> moves := m :: !moves);
  List.rev !moves

let checked name checker game =
  game (Rb_game.step checker);
  match Rb_game.finish checker with
  | Ok stats -> stats
  | Error e ->
      Budget.internal_error ~where:("Strategy." ^ name) "move %d rejected: %s" e.step
        e.reason

let sequential_game ?budget ?policy ?order g ~s =
  if s <= 0 then invalid_arg "Strategy.schedule: s must be positive";
  play ?budget ~name:"schedule" ~attrs:[ ("s", string_of_int s) ] ~sequential:true rb
    ?policy ?order g ~p:1 ~s
    ~fire:(compute (fun _ v -> Rb_game.Compute v))

let schedule ?budget ?policy ?order g ~s =
  collect (sequential_game ?budget ?policy ?order g ~s)

let io ?budget ?policy ?order g ~s =
  let game = sequential_game ?budget ?policy ?order g ~s in
  (checked "schedule" (Rbw_game.start g ~s) game).io

let mp_game ?budget ?policy ?order g ~p ~s =
  if p <= 0 then invalid_arg "Strategy.mp_schedule: p must be positive";
  if s <= 0 then invalid_arg "Strategy.mp_schedule: s must be positive";
  play ?budget ~name:"mp_schedule"
    ~attrs:[ ("p", string_of_int p); ("s", string_of_int s) ]
    ~sequential:false mp ?policy ?order g ~p ~s
    ~fire:(compute (fun proc v -> Mp_game.Compute { proc; v }))

let mp_schedule ?budget ?policy ?order g ~p ~s =
  collect (mp_game ?budget ?policy ?order g ~p ~s)

let mp_stats ?budget ?policy ?order g ~p ~s =
  let game = mp_game ?budget ?policy ?order g ~p ~s in
  checked "mp_schedule" (Mp_game.start ~g_cost:1 g ~p ~s) game

let mp_io ?budget ?policy ?order g ~p ~s = (mp_stats ?budget ?policy ?order g ~p ~s).io

let pc_game ?budget ?policy ?order g ~s =
  if s < 2 then invalid_arg "Strategy.pc_schedule: s must be at least 2";
  play ?budget ~name:"pc_schedule" ~attrs:[ ("s", string_of_int s) ] ~sequential:false
    pc ?policy ?order g ~p:1 ~s ~fire:absorb

let pc_schedule ?budget ?policy ?order g ~s =
  collect (pc_game ?budget ?policy ?order g ~s)

let pc_io ?budget ?policy ?order g ~s =
  let game = pc_game ?budget ?policy ?order g ~s in
  (checked "pc_schedule" (Pc_game.start g ~s) game).io

(* The no-reuse game: every operand loaded just before each use, every
   result stored at once, vertices round-robin over [p] processors, and
   never-used inputs read once at the end. *)
let trivial_game spell mk g ~p emit =
  let used_input = Bitset.create (Cdag.n_vertices g) in
  Array.iteri
    (fun i v ->
      let q = i mod p in
      let preds = Cdag.pred_list g v in
      List.iter
        (fun u ->
          emit (spell.load q u);
          if Cdag.is_input g u then Bitset.add used_input u)
        preds;
      emit (mk q v);
      emit (spell.store q v);
      List.iter (fun u -> emit (spell.delete q u)) preds;
      emit (spell.delete q v))
    (default_order g);
  List.iter
    (fun v ->
      if not (Bitset.mem used_input v) then begin
        emit (spell.load 0 v);
        emit (spell.delete 0 v)
      end)
    (Cdag.inputs g)

let trivial g = collect (trivial_game rb (fun _ v -> Rb_game.Compute v) g ~p:1)

let trivial_io g =
  let unused_inputs =
    List.length (List.filter (fun v -> Cdag.out_degree g v = 0) (Cdag.inputs g))
  in
  Cdag.fold_vertices g
    (fun acc v -> if Cdag.is_input g v then acc else acc + Cdag.in_degree g v + 1)
    unused_inputs

let mp_trivial g ~p =
  if p <= 0 then invalid_arg "Strategy.mp_trivial: p must be positive";
  collect (trivial_game mp (fun proc v -> Mp_game.Compute { proc; v }) g ~p)

(* every operand loaded just before use, every result stored once: the
   count is independent of the processor assignment. *)
let mp_trivial_io = trivial_io

(* ------------------------------------------------------------------ *)
(* The three-level games                                               *)

(* The level both three-level games share: one [s2]-word cache (level
   2, unit 0) over one unbounded memory (level 3).  It stages operands
   in from memory, an input's first read being its [Input]; policy
   victims still live retreat to memory; dead non-outputs are released;
   at the end outputs reach memory and turn blue, and inputs never read
   are whitened.  [where] names the game in failure texts, and
   [too_small] is its text when every candidate victim is pinned. *)
type level = {
  g : Cdag.t;
  w : walk;
  policy : policy;
  where : string;
  too_small : string;
  s1 : int;
  s2 : int;
  cache : resident;
  in_memory : Bitset.t;  (* at level 3; an input only once read *)
  emit : Prbw_game.move -> unit;
}

let shared_level g w ~policy ~where ~too_small ~s1 ~s2 emit =
  let n = Cdag.n_vertices g in
  {
    g; w; policy; where; too_small; s1; s2; emit;
    cache = resident n ~s:s2;
    in_memory = Bitset.create n;
  }

let pick l set =
  let v = victim l.w l.policy ~dead:(fun _ -> max_int) set in
  if v < 0 then failwith l.too_small;
  v

let live l v = next_use l.w v <> no_use || Cdag.is_output l.g v

(* Evict one cache entry; live values retreat to memory. *)
let evict_cache l =
  let v = pick l l.cache in
  if live l v && not (Bitset.mem l.in_memory v) then begin
    l.emit (Prbw_game.Move_down { level = 3; unit_id = 0; v });
    Bitset.add l.in_memory v
  end;
  l.emit (Prbw_game.Delete { level = 2; unit_id = 0; v });
  discard l.cache v

let cache_room l = while l.cache.size >= l.s2 do evict_cache l done

(* Write [v] down from a core's registers into the cache. *)
let write_back l v =
  cache_room l;
  l.emit (Prbw_game.Move_down { level = 2; unit_id = 0; v });
  admit l.cache v

(* Stage [v] up from memory into the cache. *)
let stage l v =
  if not (is_resident l.cache v) then begin
    if Cdag.is_input l.g v && not (Bitset.mem l.in_memory v) then begin
      l.emit (Prbw_game.Input { unit_id = 0; v });
      Bitset.add l.in_memory v
    end;
    if not (Bitset.mem l.in_memory v) then
      Budget.internal_error ~where:l.where
        "operand %d lost (n=%d, s1=%d, s2=%d, clock=%d)" v (Cdag.n_vertices l.g) l.s1
        l.s2 l.w.clock;
    cache_room l;
    l.emit (Prbw_game.Move_up { level = 2; unit_id = 0; v });
    admit l.cache v
  end

(* Drop [v] from the level-[level] [set] once dead, unless an output. *)
let release_dead l ~level set v =
  if is_resident set v && next_use l.w v = no_use && not (Cdag.is_output l.g v) then begin
    l.emit (Prbw_game.Delete { level; unit_id = 0; v });
    discard set v
  end

(* Outputs reach memory and receive blue pebbles, written back first
   when only the registers hold them ([in_regs]); tagged inputs are
   born blue and need neither.  Then untouched inputs are whitened. *)
let finish_level l ~in_regs =
  List.iter
    (fun v ->
      if not (Cdag.is_input l.g v) then begin
        if not (Bitset.mem l.in_memory v) then begin
          if not (is_resident l.cache v) then begin
            if not (in_regs v) then
              Budget.internal_error ~where:l.where "output %d lost (n=%d, s1=%d, s2=%d)"
                v (Cdag.n_vertices l.g) l.s1 l.s2;
            write_back l v
          end;
          l.emit (Prbw_game.Move_down { level = 3; unit_id = 0; v });
          Bitset.add l.in_memory v
        end;
        l.emit (Prbw_game.Output { unit_id = 0; v })
      end)
    (Cdag.outputs l.g);
  List.iter
    (fun v ->
      if not (Bitset.mem l.in_memory v) then begin
        l.emit (Prbw_game.Input { unit_id = 0; v });
        Bitset.add l.in_memory v
      end)
    (Cdag.inputs l.g)

let hierarchical_hierarchy ~s1 ~s2 =
  Hierarchy.create
    [
      { Hierarchy.count = 1; capacity = s1 };
      { Hierarchy.count = 1; capacity = s2 };
      { Hierarchy.count = 1; capacity = max_int / 2 };
    ]

let hierarchical ?(policy = Belady) ?order g ~s1 ~s2 =
  if s1 <= 0 || s2 <= 0 then invalid_arg "Strategy.hierarchical";
  collect @@ fun emit ->
  let w = walk g order in
  let l =
    shared_level g w ~policy ~where:"Strategy.hierarchical"
      ~too_small:"Strategy.hierarchical: capacities too small" ~s1 ~s2 emit
  in
  let regs = resident (Cdag.n_vertices g) ~s:s1 in
  (* Evict one register; live values retreat to the cache. *)
  let evict_regs () =
    let v = pick l regs in
    if live l v && not (is_resident l.cache v) && not (Bitset.mem l.in_memory v) then
      write_back l v;
    emit (Prbw_game.Delete { level = 1; unit_id = 0; v });
    discard regs v
  in
  let regs_room () = while regs.size >= s1 do evict_regs () done in
  (* Bring an operand into the registers, staging through the cache. *)
  let bring_in v =
    if not (is_resident regs v) then begin
      stage l v;
      Bitset.add w.pinned v;
      regs_room ();
      emit (Prbw_game.Move_up { level = 1; unit_id = 0; v });
      admit regs v
    end;
    Bitset.add w.pinned v;
    touch w v
  in
  run_walk g w
    ~fire:(fun _ v preds ->
      List.iter (fun p -> if is_resident regs p then Bitset.add w.pinned p) preds;
      List.iter bring_in preds;
      regs_room ();
      emit (Prbw_game.Compute { proc = 0; v });
      admit regs v;
      touch w v;
      List.iter (Bitset.remove w.pinned) preds)
    ~release:(fun _ v preds ->
      List.iter (release_dead l ~level:1 regs) preds;
      List.iter (release_dead l ~level:2 l.cache) preds;
      release_dead l ~level:1 regs v);
  finish_level l ~in_regs:(is_resident regs)

let smp_hierarchy ~cores ~s1 ~s2 =
  Hierarchy.create
    [
      { Hierarchy.count = cores; capacity = s1 };
      { Hierarchy.count = 1; capacity = s2 };
      { Hierarchy.count = 1; capacity = max_int / 2 };
    ]

let smp_shared ?(policy = Belady) ?order g ~cores ~s1 ~s2 =
  if cores <= 0 || s1 <= 0 || s2 <= 0 then invalid_arg "Strategy.smp_shared";
  collect @@ fun emit ->
  let w = walk g order in
  let l =
    shared_level g w ~policy ~where:"Strategy.smp_shared"
      ~too_small:"Strategy.smp_shared: cache too small" ~s1 ~s2 emit
  in
  run_walk g w
    ~fire:(fun i v preds ->
      let proc = i mod cores in
      if List.length preds >= s1 then
        failwith "Strategy.smp_shared: register file too small for the operand set";
      (* stage all operands into the shared cache first (pinned), then
         into this core's registers *)
      List.iter
        (fun u ->
          stage l u;
          Bitset.add w.pinned u;
          touch w u)
        preds;
      List.iter
        (fun u -> emit (Prbw_game.Move_up { level = 1; unit_id = proc; v = u }))
        preds;
      emit (Prbw_game.Compute { proc; v });
      (* result goes to the shared cache; registers are cleared *)
      write_back l v;
      touch w v;
      List.iter
        (fun u -> emit (Prbw_game.Delete { level = 1; unit_id = proc; v = u }))
        preds;
      emit (Prbw_game.Delete { level = 1; unit_id = proc; v });
      List.iter (Bitset.remove w.pinned) preds)
    ~release:(fun _ _ preds -> List.iter (release_dead l ~level:2 l.cache) preds);
  finish_level l ~in_regs:(fun _ -> false)

(* ------------------------------------------------------------------ *)
(* SPMD                                                                 *)

let spmd g hier ~owner ?order () =
  if Hierarchy.n_levels hier <> 2 then
    invalid_arg "Strategy.spmd: hierarchy must have exactly two levels";
  let procs = Hierarchy.processors hier in
  if Hierarchy.count hier ~level:2 <> procs then
    invalid_arg "Strategy.spmd: need one level-2 memory per processor";
  let order = resolve_order g order in
  let n = Cdag.n_vertices g in
  let owner_of v =
    let p = owner v in
    if p < 0 || p >= procs then invalid_arg "Strategy.spmd: owner out of range";
    p
  in
  (* Which level-2 memories currently hold each vertex. *)
  let in_memory = Array.init procs (fun _ -> Bitset.create n) in
  let input_read = Bitset.create n in
  let moves = ref [] in
  let emit m = moves := m :: !moves in
  (* Make [v] present in memory [p]: read it from blue if it is an
     unread input, else fetch it from its owner's memory. *)
  let ensure_in_memory p v =
    if not (Bitset.mem in_memory.(p) v) then begin
      let home = owner_of v in
      if Cdag.is_input g v && not (Bitset.mem input_read v) then begin
        emit (Prbw_game.Input { unit_id = home; v });
        Bitset.add in_memory.(home) v;
        Bitset.add input_read v
      end;
      if not (Bitset.mem in_memory.(p) v) then begin
        if not (Bitset.mem in_memory.(home) v) then
          Budget.internal_error ~where:"Strategy.spmd"
            "operand %d not at its home memory %d (n=%d)" v home n;
        emit (Prbw_game.Remote_get { src = home; dst = p; v });
        Bitset.add in_memory.(p) v
      end
    end
  in
  Array.iter
    (fun v ->
      let p = owner_of v in
      let preds = Cdag.pred_list g v in
      List.iter
        (fun u ->
          ensure_in_memory p u;
          emit (Prbw_game.Move_up { level = 1; unit_id = p; v = u }))
        preds;
      emit (Prbw_game.Compute { proc = p; v });
      emit (Prbw_game.Move_down { level = 2; unit_id = p; v });
      Bitset.add in_memory.(p) v;
      if Cdag.is_output g v then emit (Prbw_game.Output { unit_id = p; v });
      List.iter
        (fun u -> emit (Prbw_game.Delete { level = 1; unit_id = p; v = u }))
        preds;
      emit (Prbw_game.Delete { level = 1; unit_id = p; v }))
    order;
  (* Whiten inputs nobody consumed. *)
  List.iter
    (fun v ->
      if not (Bitset.mem input_read v) then begin
        emit (Prbw_game.Input { unit_id = owner_of v; v });
        Bitset.add input_read v
      end)
    (Cdag.inputs g);
  List.rev !moves
