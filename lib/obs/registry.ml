(* Global-but-resettable instrumentation state: the enabled flag, the
   clamped-monotone clock, the counter table and the completed-span
   buffer.  Everything every other Dmc_obs module touches lives here so
   the disabled fast path is a single [!enabled] load shared by all of
   them. *)

type counter = { c_name : string; mutable c_value : int }

type event = {
  ev_name : string;
  mutable ev_attrs : (string * string) list;
  mutable ev_ts : float; (* microseconds since the registry epoch *)
  mutable ev_dur : float; (* microseconds *)
  mutable ev_tid : int;
  mutable ev_src : int; (* lane: 0 = this process, else a registered source *)
  ev_depth : int;
}

let enabled = ref false
let is_enabled () = !enabled

(* [Unix.gettimeofday] can step backwards under NTP adjustment; clamping
   to the max seen so far keeps span durations non-negative, which the
   Chrome trace viewer requires. *)
let last_now = ref neg_infinity

let now () =
  let t = Unix.gettimeofday () in
  if t > !last_now then last_now := t;
  !last_now

(* 0.0 is the "never enabled" sentinel; the epoch is captured the first
   time instrumentation is switched on and deliberately survives
   [child_reset], so spans recorded in a forked worker share the parent
   timeline and merge without translation. *)
let epoch = ref 0.0
let now_us () = (now () -. !epoch) *. 1e6

let set_enabled b =
  if b && !epoch = 0.0 then epoch := now ();
  enabled := b

(* Sources are the trace's process lanes: lane 0 is always this
   process (the supervisor), and every remote/forked origin a snapshot
   is merged from gets a stable id in first-registration order.  Like
   counters, registrations are idempotent and survive [clear], so a
   host keeps its lane across checkpointed resumes within one run. *)
let sources : (string, int) Hashtbl.t = Hashtbl.create 8
let source_names : (int, string) Hashtbl.t = Hashtbl.create 8
let next_source = ref 1

let register_source name id =
  Hashtbl.replace sources name id;
  Hashtbl.replace source_names id name

let () = register_source "dmc" 0

let source name =
  match Hashtbl.find_opt sources name with
  | Some id -> id
  | None ->
      let id = !next_source in
      incr next_source;
      register_source name id;
      id

let source_name id = Hashtbl.find_opt source_names id

let fold_sources f acc =
  let all = Hashtbl.fold (fun id name l -> (id, name) :: l) source_names [] in
  let all = List.sort compare all in
  List.fold_left (fun acc (id, name) -> f acc id name) acc all

(* Counters are registered once (typically at module initialisation in
   the instrumented library) and found by name thereafter, so merging a
   child snapshot can never create duplicates. *)
let counters : (string, counter) Hashtbl.t = Hashtbl.create 64

let counter name =
  match Hashtbl.find_opt counters name with
  | Some c -> c
  | None ->
      let c = { c_name = name; c_value = 0 } in
      Hashtbl.replace counters name c;
      c

let fold_counters f acc =
  let all = Hashtbl.fold (fun _ c l -> c :: l) counters [] in
  let all = List.sort (fun a b -> compare a.c_name b.c_name) all in
  List.fold_left f acc all

(* Histograms are log-bucketed: bucket 0 holds the value 0 and bucket
   [b >= 1] the values in [2^(b-1), 2^b).  Bucket counts, the running
   sum and the observation count are all ints, so merging a worker
   snapshot is bucket-wise addition — commutative and exact, which is
   what keeps quantiles byte-identical across [--jobs] widths. *)
let hist_buckets = 63

type histogram = {
  h_name : string;
  h_counts : int array; (* length hist_buckets *)
  mutable h_sum : int;
  mutable h_n : int;
}

let bucket_of_value v =
  if v <= 0 then 0
  else begin
    let b = ref 0 and x = ref v in
    while !x > 0 do
      incr b;
      x := !x lsr 1
    done;
    min !b (hist_buckets - 1)
  end

let bucket_lo b = if b = 0 then 0 else 1 lsl (b - 1)
let bucket_hi b = if b = 0 then 0 else (1 lsl b) - 1

let histograms : (string, histogram) Hashtbl.t = Hashtbl.create 32

let histogram name =
  match Hashtbl.find_opt histograms name with
  | Some h -> h
  | None ->
      let h =
        { h_name = name; h_counts = Array.make hist_buckets 0; h_sum = 0; h_n = 0 }
      in
      Hashtbl.replace histograms name h;
      h

let fold_histograms f acc =
  let all = Hashtbl.fold (fun _ h l -> h :: l) histograms [] in
  let all = List.sort (fun a b -> compare a.h_name b.h_name) all in
  List.fold_left f acc all

(* Gauges record a last-seen value (heap words, compactions).  Unlike
   counters they do not measure work, so they are *not* part of the
   cross-width determinism contract; merging across the fork boundary
   takes the maximum, which is commutative, so merge order still
   cannot matter. *)
type gauge = { g_name : string; mutable g_value : float; mutable g_set : bool }

let gauges : (string, gauge) Hashtbl.t = Hashtbl.create 16

let gauge name =
  match Hashtbl.find_opt gauges name with
  | Some g -> g
  | None ->
      let g = { g_name = name; g_value = 0.0; g_set = false } in
      Hashtbl.replace gauges name g;
      g

let fold_gauges f acc =
  let all = Hashtbl.fold (fun _ g l -> g :: l) gauges [] in
  let all = List.sort (fun a b -> compare a.g_name b.g_name) all in
  List.fold_left f acc all

let set_gauge g v =
  g.g_value <- v;
  g.g_set <- true

let merge_gauge g v =
  if g.g_set then set_gauge g (Float.max g.g_value v) else set_gauge g v

(* GC/memory gauges, refreshed at every span boundary (and when a
   worker snapshots itself for the fork boundary).  quick_stat reads
   runtime globals — no heap walk — so the hot engines can afford the
   sample on every span close.  Under OCaml 5 its minor_words reads 0
   until the first minor collection; Gc.minor_words () does not. *)
let g_minor_words = gauge "gc.minor_words"
let g_promoted_words = gauge "gc.promoted_words"
let g_major_words = gauge "gc.major_words"
let g_minor_collections = gauge "gc.minor_collections"
let g_major_collections = gauge "gc.major_collections"
let g_heap_words = gauge "gc.heap_words"
let g_top_heap_words = gauge "gc.top_heap_words"
let g_compactions = gauge "gc.compactions"

let sample_gc () =
  let s = Gc.quick_stat () in
  set_gauge g_minor_words (Gc.minor_words ());
  set_gauge g_promoted_words s.Gc.promoted_words;
  set_gauge g_major_words s.Gc.major_words;
  set_gauge g_minor_collections (float_of_int s.Gc.minor_collections);
  set_gauge g_major_collections (float_of_int s.Gc.major_collections);
  set_gauge g_heap_words (float_of_int s.Gc.heap_words);
  set_gauge g_top_heap_words (float_of_int s.Gc.top_heap_words);
  set_gauge g_compactions (float_of_int s.Gc.compactions)

(* Completed spans, in completion order.  The buffer is bounded so a
   pathological run cannot exhaust memory; overflow is counted rather
   than silently ignored.  The bound is settable so tests can exercise
   the drop path without recording a million spans. *)
let default_max_events = 1_000_000
let max_events_ref = ref default_max_events
let max_events () = !max_events_ref
let set_max_events n = max_events_ref := max 1 n
let events : event array ref = ref [||]
let n_events = ref 0
let dropped_events = ref 0

let push_event e =
  if !n_events >= !max_events_ref then incr dropped_events
  else begin
    (if !n_events >= Array.length !events then
       let cap = max 256 (2 * Array.length !events) in
       let a = Array.make cap e in
       Array.blit !events 0 a 0 !n_events;
       events := a);
    !events.(!n_events) <- e;
    incr n_events
  end

let iter_events f =
  for i = 0 to !n_events - 1 do
    f !events.(i)
  done

let event_count () = !n_events
let dropped () = !dropped_events

(* Flight recorder: a small bounded ring of the most recent notable
   moments (span closes, pool dispatches, verdicts).  Unlike the span
   buffer above — which keeps the *oldest* events and drops the tail —
   the ring keeps the *newest*, because a postmortem wants what
   happened just before the crash.  Kept deliberately tiny: it is
   always on once the registry is enabled, even when nobody ever dumps
   it. *)
type flight_entry = {
  fl_ts : float; (* microseconds since the registry epoch *)
  fl_kind : string; (* "span" | "dispatch" | "verdict" | ... *)
  fl_name : string;
  fl_detail : string;
}

let default_flight_capacity = 256
let flight_cap = ref default_flight_capacity
let flight_buf : flight_entry option array ref = ref [||]
let flight_next = ref 0 (* next write slot *)
let flight_seen = ref 0 (* total notes ever pushed *)

let set_flight_capacity n =
  flight_cap := max 1 n;
  flight_buf := [||];
  flight_next := 0

let flight_note ~kind ~name ~detail =
  if !enabled then begin
    (if Array.length !flight_buf <> !flight_cap then begin
       flight_buf := Array.make !flight_cap None;
       flight_next := 0
     end);
    !flight_buf.(!flight_next) <-
      Some { fl_ts = now_us (); fl_kind = kind; fl_name = name; fl_detail = detail };
    flight_next := (!flight_next + 1) mod !flight_cap;
    incr flight_seen
  end

let flight_entries () =
  let cap = Array.length !flight_buf in
  if cap = 0 then []
  else begin
    let out = ref [] in
    for i = cap - 1 downto 0 do
      match !flight_buf.((!flight_next + i) mod cap) with
      | Some e -> out := e :: !out
      | None -> ()
    done;
    !out
  end

let flight_count () = !flight_seen

(* Stack of open spans for the current thread of control.  The pool
   supervisor and each forked worker are single-threaded with respect to
   spans, so one stack suffices; [cur_tid] is what distinguishes merged
   worker timelines in the exported trace. *)
let stack : event list ref = ref []
let cur_tid = ref 0

let open_span ~name ~attrs =
  let e =
    {
      ev_name = name;
      ev_attrs = attrs;
      ev_ts = now_us ();
      ev_dur = 0.0;
      ev_tid = !cur_tid;
      ev_src = 0;
      ev_depth = List.length !stack;
    }
  in
  stack := e :: !stack;
  e

(* Called with the closing span's name; the pool's forked workers set
   this to turn span boundaries into rate-limited heartbeat frames on
   the result pipe, without the engines knowing the pool exists. *)
let on_span_close : (string -> unit) option ref = ref None

let close_span e =
  e.ev_dur <- now_us () -. e.ev_ts;
  (match !stack with
  | top :: rest when top == e -> stack := rest
  | _ -> stack := List.filter (fun x -> x != e) !stack);
  push_event e;
  sample_gc ();
  flight_note ~kind:"span" ~name:e.ev_name
    ~detail:(Printf.sprintf "%.3fms depth=%d" (e.ev_dur /. 1e3) e.ev_depth);
  match !on_span_close with Some f -> f e.ev_name | None -> ()

let innermost () = match !stack with [] -> None | e :: _ -> Some e

let add_event ~name ?(attrs = []) ~ts_us ~dur_us ?(tid = 0) ?(src = 0) ?(depth = 0)
    () =
  push_event
    {
      ev_name = name;
      ev_attrs = attrs;
      ev_ts = ts_us;
      ev_dur = dur_us;
      ev_tid = tid;
      ev_src = src;
      ev_depth = depth;
    }

let clear () =
  Hashtbl.iter (fun _ c -> c.c_value <- 0) counters;
  Hashtbl.iter
    (fun _ h ->
      Array.fill h.h_counts 0 hist_buckets 0;
      h.h_sum <- 0;
      h.h_n <- 0)
    histograms;
  Hashtbl.iter
    (fun _ g ->
      g.g_value <- 0.0;
      g.g_set <- false)
    gauges;
  n_events := 0;
  events := [||];
  dropped_events := 0;
  flight_buf := [||];
  flight_next := 0;
  flight_seen := 0;
  stack := []

let reset () =
  clear ();
  epoch := now ()

let child_reset () = clear ()

(* Fork-boundary snapshot: only non-zero counters travel in the frame
   (the supervisor's merge treats a missing counter as +0), and the
   events carry registry-epoch timestamps, which are directly comparable
   to the parent's because the epoch is inherited across fork. *)

let snapshot_json () =
  let open Dmc_util.Json in
  sample_gc ();
  let cs =
    fold_counters
      (fun acc c -> if c.c_value = 0 then acc else (c.c_name, Int c.c_value) :: acc)
      []
  in
  (* Sparse bucket encoding: only non-empty buckets travel, as
     [[index; count]; ...] pairs, so an idle histogram costs nothing. *)
  let hs =
    fold_histograms
      (fun acc h ->
        if h.h_n = 0 then acc
        else begin
          let buckets = ref [] in
          for b = hist_buckets - 1 downto 0 do
            if h.h_counts.(b) > 0 then
              buckets := List [ Int b; Int h.h_counts.(b) ] :: !buckets
          done;
          ( h.h_name,
            Obj
              [
                ("buckets", List !buckets);
                ("sum", Int h.h_sum);
                ("n", Int h.h_n);
              ] )
          :: acc
        end)
      []
  in
  let gs =
    fold_gauges
      (fun acc g -> if g.g_set then (g.g_name, Float g.g_value) :: acc else acc)
      []
  in
  let evs =
    let out = ref [] in
    iter_events (fun e ->
        out :=
          Obj
            [
              ("name", String e.ev_name);
              ("ts", Float e.ev_ts);
              ("dur", Float e.ev_dur);
              ("depth", Int e.ev_depth);
              ("attrs", Obj (List.map (fun (k, v) -> (k, String v)) e.ev_attrs));
            ]
          :: !out);
    List.rev !out
  in
  Obj
    [
      ("counters", Obj (List.rev cs));
      ("hists", Obj (List.rev hs));
      ("gauges", Obj (List.rev gs));
      ("dropped", Int !dropped_events);
      ("events", List evs);
    ]

let merge_snapshot ?(tid = 0) ?(src = 0) ?(shift_us = 0.0) json =
  let open Dmc_util.Json in
  match json with
  | Obj _ ->
      (match mem json "counters" with
      | Some (Obj cs) ->
          List.iter
            (fun (name, v) ->
              match v with
              | Int n -> (counter name).c_value <- (counter name).c_value + n
              | _ -> ())
            cs
      | _ -> ());
      (match mem json "hists" with
      | Some (Obj hs) ->
          List.iter
            (fun (name, v) ->
              match v with
              | Obj _ ->
                  let h = histogram name in
                  (match mem v "buckets" with
                  | Some (List bs) ->
                      List.iter
                        (fun b ->
                          match b with
                          | List [ Int idx; Int count ]
                            when idx >= 0 && idx < hist_buckets ->
                              h.h_counts.(idx) <- h.h_counts.(idx) + count
                          | _ -> ())
                        bs
                  | _ -> ());
                  (match mem v "sum" with
                  | Some (Int s) -> h.h_sum <- h.h_sum + s
                  | _ -> ());
                  (match mem v "n" with
                  | Some (Int n) -> h.h_n <- h.h_n + n
                  | _ -> ())
              | _ -> ())
            hs
      | _ -> ());
      (match mem json "gauges" with
      | Some (Obj gs) ->
          List.iter
            (fun (name, v) ->
              match v with
              | Float f -> merge_gauge (gauge name) f
              | Int i -> merge_gauge (gauge name) (float_of_int i)
              | _ -> ())
            gs
      | _ -> ());
      (match mem json "dropped" with
      | Some (Int n) -> dropped_events := !dropped_events + n
      | _ -> ());
      (match mem json "events" with
      | Some (List evs) ->
          List.iter
            (fun ev ->
              match (mem ev "name", mem ev "ts", mem ev "dur") with
              | Some (String name), Some ts, Some dur ->
                  let num = function
                    | Float f -> f
                    | Int i -> float_of_int i
                    | _ -> 0.0
                  in
                  let depth =
                    match mem ev "depth" with Some (Int d) -> d | _ -> 0
                  in
                  let attrs =
                    match mem ev "attrs" with
                    | Some (Obj kvs) ->
                        List.filter_map
                          (fun (k, v) ->
                            match v with String s -> Some (k, s) | _ -> None)
                          kvs
                    | _ -> []
                  in
                  add_event ~name ~attrs ~ts_us:(num ts +. shift_us)
                    ~dur_us:(num dur) ~tid ~src ~depth ()
              | _ -> ())
            evs
      | _ -> ())
  | _ -> ()
