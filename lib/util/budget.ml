type failure =
  | Timeout
  | Budget_exhausted
  | Cancelled
  | Too_large of string
  | Invalid_input of string
  | Internal of string

let failure_to_string = function
  | Timeout -> "timeout"
  | Budget_exhausted -> "budget-exhausted"
  | Cancelled -> "cancelled"
  | Too_large m -> "too-large: " ^ m
  | Invalid_input m -> "invalid-input: " ^ m
  | Internal m -> "internal: " ^ m

let pp_failure ppf f = Format.pp_print_string ppf (failure_to_string f)

let failure_of_string s =
  let tagged tag =
    let prefix = tag ^ ": " in
    let lp = String.length prefix in
    if String.length s >= lp && String.sub s 0 lp = prefix then
      Some (String.sub s lp (String.length s - lp))
    else None
  in
  match s with
  | "timeout" -> Some Timeout
  | "budget-exhausted" -> Some Budget_exhausted
  | "cancelled" -> Some Cancelled
  | _ -> (
      match tagged "too-large" with
      | Some m -> Some (Too_large m)
      | None -> (
          match tagged "invalid-input" with
          | Some m -> Some (Invalid_input m)
          | None -> (
              match tagged "internal" with
              | Some m -> Some (Internal m)
              | None -> None)))

exception Exhausted of failure

exception Internal_error of { where : string; details : string }

let () =
  Printexc.register_printer (function
    | Exhausted f -> Some ("Budget.Exhausted: " ^ failure_to_string f)
    | Internal_error { where; details } ->
        Some (Printf.sprintf "Internal_error at %s: %s" where details)
    | _ -> None)

let internal_error ~where fmt =
  Printf.ksprintf (fun details -> raise (Internal_error { where; details })) fmt

type t = {
  deadline : float option;  (* absolute gettimeofday *)
  started : float;
  cancel : unit -> bool;
  mutable nodes_left : int;  (* max_int means unlimited *)
  mutable ticks : int;
}

(* How often [tick] consults the clock and the cancellation hook.  The
   engines tick once per search node, so this keeps the fast path at a
   couple of memory operations while still bounding the overshoot past
   a deadline to a few hundred node expansions. *)
let clock_period = 256

let no_cancel () = false

let now () = Unix.gettimeofday ()

let create ?deadline ?nodes ?cancel () =
  let started = now () in
  {
    deadline = Option.map (fun d -> started +. d) deadline;
    started;
    cancel = Option.value cancel ~default:no_cancel;
    nodes_left = (match nodes with Some n -> max 0 n | None -> max_int);
    ticks = 0;
  }

let unlimited = create ()

let over_deadline b =
  match b.deadline with None -> false | Some d -> now () > d

let check b =
  if b.nodes_left <= 0 then Some Budget_exhausted
  else if over_deadline b then Some Timeout
  else if b.cancel () then Some Cancelled
  else None

let tick b =
  b.ticks <- b.ticks + 1;
  if b.nodes_left <> max_int then begin
    b.nodes_left <- b.nodes_left - 1;
    if b.nodes_left <= 0 then raise (Exhausted Budget_exhausted)
  end;
  if b.ticks mod clock_period = 0 then begin
    if over_deadline b then raise (Exhausted Timeout);
    if b.cancel () then raise (Exhausted Cancelled)
  end

let tick_n b k =
  if k > 0 then begin
    let before = b.ticks in
    b.ticks <- b.ticks + k;
    if b.nodes_left <> max_int then begin
      b.nodes_left <- b.nodes_left - k;
      if b.nodes_left <= 0 then raise (Exhausted Budget_exhausted)
    end;
    if b.ticks / clock_period > before / clock_period then begin
      if over_deadline b then raise (Exhausted Timeout);
      if b.cancel () then raise (Exhausted Cancelled)
    end
  end

(* [k] single ticks in closed form.  The i-th tick raises on the node
   limit once [nodes_left - i <= 0]; before that, every tick that lands
   [ticks] on a multiple of [clock_period] polls the clock, then the
   cancellation hook, exactly as [tick] would — with the guard already
   advanced to that tick, so the hook sees the [spent] it would. *)
let replay b k =
  if k > 0 then begin
    let ticks = b.ticks and nodes_left = b.nodes_left in
    let node_stop = if nodes_left = max_int then k + 1 else max 1 nodes_left in
    let advance_to j =
      b.ticks <- ticks + j;
      if nodes_left <> max_int then b.nodes_left <- nodes_left - j
    in
    let last_poll = min k (node_stop - 1) in
    let rec poll j =
      if j <= last_poll then begin
        advance_to j;
        if over_deadline b then raise (Exhausted Timeout);
        if b.cancel () then raise (Exhausted Cancelled);
        poll (j + clock_period)
      end
    in
    poll (clock_period - (ticks mod clock_period));
    if node_stop <= k then begin
      advance_to node_stop;
      raise (Exhausted Budget_exhausted)
    end;
    advance_to k
  end

(* Ticks [i = 1 .. headroom] leave [nodes_left - i >= 1] and land
   [ticks] short of the next multiple of [clock_period]. *)
let headroom b =
  let poll = clock_period - 1 - (b.ticks mod clock_period) in
  max 0 (if b.nodes_left = max_int then poll else min poll (b.nodes_left - 1))

let spends_limit_within b k = k > 0 && b.nodes_left <> max_int && b.nodes_left <= k

let spent b = b.ticks

let elapsed b = now () -. b.started

let guard ?budget f =
  let precheck = match budget with None -> None | Some b -> check b in
  match precheck with
  | Some failure -> Error failure
  | None -> (
      try Ok (f ()) with
      | Exhausted failure -> Error failure
      | Internal_error { where; details } ->
          Error (Internal (where ^ ": " ^ details)))
