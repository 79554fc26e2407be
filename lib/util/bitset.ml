type t = {
  words : Bytes.t;        (* 8 bits per byte; little-endian bit order *)
  cap : int;
  mutable count : int;
}

let create n =
  if n < 0 then invalid_arg "Bitset.create";
  { words = Bytes.make ((n + 7) / 8) '\000'; cap = n; count = 0 }

let capacity s = s.cap

let check s i =
  if i < 0 || i >= s.cap then invalid_arg "Bitset: index out of range"

let mem s i =
  check s i;
  Char.code (Bytes.unsafe_get s.words (i lsr 3)) land (1 lsl (i land 7)) <> 0

let add s i =
  check s i;
  let b = Char.code (Bytes.unsafe_get s.words (i lsr 3)) in
  let bit = 1 lsl (i land 7) in
  if b land bit = 0 then begin
    Bytes.unsafe_set s.words (i lsr 3) (Char.unsafe_chr (b lor bit));
    s.count <- s.count + 1
  end

let remove s i =
  check s i;
  let b = Char.code (Bytes.unsafe_get s.words (i lsr 3)) in
  let bit = 1 lsl (i land 7) in
  if b land bit <> 0 then begin
    Bytes.unsafe_set s.words (i lsr 3) (Char.unsafe_chr (b land lnot bit));
    s.count <- s.count - 1
  end

let cardinal s = s.count
let is_empty s = s.count = 0

let clear s =
  Bytes.fill s.words 0 (Bytes.length s.words) '\000';
  s.count <- 0

let copy s = { words = Bytes.copy s.words; cap = s.cap; count = s.count }

let popcount_byte b =
  let rec go b acc = if b = 0 then acc else go (b lsr 1) (acc + (b land 1)) in
  go b 0

let same_cap a b =
  if a.cap <> b.cap then invalid_arg "Bitset: capacity mismatch"

let binop f a b =
  same_cap a b;
  let r = create a.cap in
  let n = Bytes.length a.words in
  let count = ref 0 in
  for k = 0 to n - 1 do
    let v = f (Char.code (Bytes.unsafe_get a.words k))
              (Char.code (Bytes.unsafe_get b.words k)) in
    Bytes.unsafe_set r.words k (Char.unsafe_chr v);
    count := !count + popcount_byte v
  done;
  r.count <- !count;
  r

let union a b = binop (lor) a b
let inter a b = binop (land) a b
let diff a b = binop (fun x y -> x land lnot y land 0xff) a b

let equal a b =
  same_cap a b;
  Bytes.equal a.words b.words

let subset a b =
  same_cap a b;
  let n = Bytes.length a.words in
  let rec go k =
    k >= n
    || (let x = Char.code (Bytes.unsafe_get a.words k)
        and y = Char.code (Bytes.unsafe_get b.words k) in
        x land lnot y = 0 && go (k + 1))
  in
  go 0

(* Block by block: an all-zero 8-byte block costs one read, and any
   other block is walked byte by byte, within a byte only up to its
   highest set bit.  A byte is re-read for every bit, so members that
   [f] adds ahead of the walk are visited and members it removes ahead
   of it are not, as a bit-by-bit walk would; a block or byte is only
   skipped while no [f] runs. *)
let iter f s =
  let words = s.words in
  let len = Bytes.length words in
  let k = ref 0 in
  while !k < len do
    if !k + 8 <= len && Bytes.get_int64_le words !k = 0L then k := !k + 8
    else begin
      let stop = min (!k + 8) len in
      for b = !k to stop - 1 do
        let j = ref 0 in
        while !j < 8 && Char.code (Bytes.unsafe_get words b) lsr !j <> 0 do
          if Char.code (Bytes.unsafe_get words b) land (1 lsl !j) <> 0 then
            f ((b lsl 3) lor !j);
          incr j
        done
      done;
      k := stop
    end
  done

let fold f s init =
  let acc = ref init in
  iter (fun i -> acc := f i !acc) s;
  !acc

let elements s = List.rev (fold (fun i acc -> i :: acc) s [])

let of_list n xs =
  let s = create n in
  List.iter (add s) xs;
  s

let choose s =
  if is_empty s then None
  else begin
    let r = ref None in
    (try
       iter (fun i -> r := Some i; raise Exit) s
     with Exit -> ());
    !r
  end

let pp ppf s =
  Format.fprintf ppf "{%a}"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ",")
       Format.pp_print_int)
    (elements s)
