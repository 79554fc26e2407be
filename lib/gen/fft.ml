module Cdag = Dmc_cdag.Cdag
module B = Cdag.Builder

let vertex ~k ~rank i =
  if rank < 0 || rank > k then invalid_arg "Fft.vertex: rank out of range";
  let n = 1 lsl k in
  if i < 0 || i >= n then invalid_arg "Fft.vertex: index out of range";
  (rank * n) + i

let bitonic_sort k =
  if k < 0 || k > 12 then invalid_arg "Fft.bitonic_sort: size out of range";
  let n = 1 lsl k in
  let b = Cdag.Builder.create ~hint:(n * (1 + (k * (k + 1)))) () in
  let wires = Array.init n (fun i -> B.add_vertex ~label:(Printf.sprintf "in%d" i) b) in
  let inputs = Array.to_list wires in
  (* Batcher's network: stage (p, q) with q = p, p-1, ..., 0 compares
     wire i with wire (i xor 2^q); each comparator yields two fresh
     vertices reading both wires. *)
  for p = 0 to k - 1 do
    for q = p downto 0 do
      let stride = 1 lsl q in
      let next = Array.copy wires in
      for i = 0 to n - 1 do
        let j = i lxor stride in
        if i < j then begin
          let lo = B.add_vertex ~label:(Printf.sprintf "min[%d,%d]" p i) b in
          let hi = B.add_vertex ~label:(Printf.sprintf "max[%d,%d]" p i) b in
          B.add_edge b wires.(i) lo;
          B.add_edge b wires.(j) lo;
          B.add_edge b wires.(i) hi;
          B.add_edge b wires.(j) hi;
          next.(i) <- lo;
          next.(j) <- hi
        end
      done;
      Array.blit next 0 wires 0 n
    done
  done;
  B.freeze ~inputs ~outputs:(Array.to_list wires) b

let blocked_order ~k ~group_bits =
  if group_bits < 1 then invalid_arg "Fft.blocked_order";
  let n = 1 lsl k in
  let order = Dmc_util.Intvec.create ~initial_capacity:(k * n) () in
  let rank = ref 0 in
  while !rank < k do
    let hi = min k (!rank + group_bits) in
    let active = hi - !rank in
    (* Enumerate the groups: all settings of the inactive index bits.
       A group's members share those bits and range over the active
       ones [rank .. hi-1]. *)
    let n_groups = n lsr active in
    for group = 0 to n_groups - 1 do
      (* spread the group's bits around the active window *)
      let low_mask = (1 lsl !rank) - 1 in
      let low = group land low_mask in
      let high = (group lsr !rank) lsl hi in
      for r = !rank to hi - 1 do
        for a = 0 to (1 lsl active) - 1 do
          let i = high lor (a lsl !rank) lor low in
          Dmc_util.Intvec.push order (vertex ~k ~rank:(r + 1) i)
        done
      done
    done;
    rank := hi
  done;
  Dmc_util.Intvec.to_array order

let butterfly k =
  if k < 0 || k > 24 then invalid_arg "Fft.butterfly: size out of range";
  Dmc_cdag.Implicit.materialize (Implicit_gen.butterfly k)
