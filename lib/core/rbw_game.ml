module Cdag = Dmc_cdag.Cdag
module Validate = Dmc_cdag.Validate

type move = Rb_game.move =
  | Load of Cdag.vertex
  | Store of Cdag.vertex
  | Compute of Cdag.vertex
  | Delete of Cdag.vertex

type stats = Rb_game.stats = {
  loads : int;
  stores : int;
  io : int;
  computes : int;
  max_red : int;
}

type error = Rb_game.error = { step : int; reason : string }

type checker = (move, stats) Rb_game.checker

let start = Rb_game.start_white
let step = Rb_game.step
let finish = Rb_game.finish

let run g ~s moves =
  let c = start g ~s in
  if not (Validate.is_rbw g) then
    invalid_arg "Rbw_game.run: graph violates the RBW convention";
  Rb_game.replay c moves

let validate g ~s moves =
  match run g ~s moves with Ok _ -> None | Error e -> Some e

let io_of g ~s moves =
  match run g ~s moves with
  | Ok stats -> stats.io
  | Error e -> failwith (Printf.sprintf "invalid RBW game at step %d: %s" e.step e.reason)
