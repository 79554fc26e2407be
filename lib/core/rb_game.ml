module Bitset = Dmc_util.Bitset
module Cdag = Dmc_cdag.Cdag

type move =
  | Load of Cdag.vertex
  | Store of Cdag.vertex
  | Compute of Cdag.vertex
  | Delete of Cdag.vertex

let pp_move ppf = function
  | Load v -> Format.fprintf ppf "load %d" v
  | Store v -> Format.fprintf ppf "store %d" v
  | Compute v -> Format.fprintf ppf "compute %d" v
  | Delete v -> Format.fprintf ppf "delete %d" v

type stats = {
  loads : int;
  stores : int;
  io : int;
  computes : int;
  max_red : int;
}

type error = { step : int; reason : string }

exception Illegal of string

let illegal fmt = Format.kasprintf (fun reason -> raise (Illegal reason)) fmt

type ('m, 's) checker = {
  play : 'm -> unit;
  complete : unit -> 's;
  mutable steps : int;
  mutable error : error option;
}

let checker ~play ~complete = { play; complete; steps = 0; error = None }

let step c m =
  match c.error with
  | Some _ -> ()
  | None ->
      (try c.play m with Illegal reason -> c.error <- Some { step = c.steps; reason });
      c.steps <- c.steps + 1

let finish c =
  match c.error with
  | Some e -> Error e
  | None -> (
      try Ok (c.complete ()) with Illegal reason -> Error { step = c.steps; reason })

let replay c moves =
  List.iter (step c) moves;
  finish c

(* Definition 2's rules; [white] adds Definition 4's white pebbles. *)
let rules ~white g ~s =
  let n = Cdag.n_vertices g in
  let red = Bitset.create n and blue = Bitset.create n in
  let white = if white then Some (Bitset.create n) else None in
  List.iter (Bitset.add blue) (Cdag.inputs g);
  let loads = ref 0 and stores = ref 0 and computes = ref 0 and max_red = ref 0 in
  let place v =
    if not (Bitset.mem red v) then begin
      if Bitset.cardinal red >= s then illegal "no free red pebble (S = %d)" s;
      Bitset.add red v;
      if Bitset.cardinal red > !max_red then max_red := Bitset.cardinal red
    end
  in
  let whiten v = match white with Some w -> Bitset.add w v | None -> () in
  let play = function
    | Load v | Store v | Compute v | Delete v when v < 0 || v >= n ->
        illegal "vertex %d out of range" v
    | Load v ->
        if not (Bitset.mem blue v) then illegal "load %d: no blue pebble" v;
        place v;
        whiten v;
        incr loads
    | Store v ->
        if not (Bitset.mem red v) then illegal "store %d: no red pebble" v;
        Bitset.add blue v;
        incr stores
    | Compute v ->
        if Cdag.is_input g v then illegal "compute %d: inputs cannot fire" v;
        (match white with
        | Some w when Bitset.mem w v ->
            illegal "compute %d: already white (recomputation forbidden)" v
        | _ -> ());
        (* the last predecessor without a red pebble *)
        let missing =
          Cdag.fold_pred g v (fun acc u -> if Bitset.mem red u then acc else u) (-1)
        in
        if missing >= 0 then illegal "compute %d: predecessor %d not red" v missing;
        place v;
        whiten v;
        incr computes
    | Delete v ->
        if not (Bitset.mem red v) then illegal "delete %d: no red pebble" v;
        Bitset.remove red v
  in
  let complete () =
    Option.iter
      (fun w ->
        Cdag.iter_vertices g (fun v ->
            if not (Bitset.mem w v) then
              illegal "vertex %d has no white pebble at the end" v))
      white;
    List.iter
      (fun v ->
        if not (Bitset.mem blue v) then illegal "output %d has no blue pebble at the end" v)
      (Cdag.outputs g);
    {
      loads = !loads;
      stores = !stores;
      io = !loads + !stores;
      computes = !computes;
      max_red = !max_red;
    }
  in
  checker ~play ~complete

let start g ~s =
  if s <= 0 then invalid_arg "Rb_game.start: s must be positive";
  rules ~white:false g ~s

let start_white g ~s =
  if s <= 0 then invalid_arg "Rbw_game.start: s must be positive";
  rules ~white:true g ~s

let run g ~s moves = replay (start g ~s) moves

let validate g ~s moves =
  match run g ~s moves with Ok _ -> None | Error e -> Some e
