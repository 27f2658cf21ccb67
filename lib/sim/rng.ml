(* The SplitMix64 state lives in 8 bytes rather than in a mutable [int64]
   field: a field would box a fresh Int64 on every draw, while the bytes are
   read and written unboxed. *)
type t = Bytes.t

let golden_gamma = 0x9E3779B97F4A7C15L

let of_state state =
  let t = Bytes.create 8 in
  Bytes.set_int64_le t 0 state;
  t

let create ~seed = of_state (Int64.of_int seed)

(* SplitMix64 output function (Steele, Lea, Flood 2014).  Inlined so that
   each caller keeps the draw unboxed too. *)
let[@inline] next_int64 t =
  let z = Int64.add (Bytes.get_int64_le t 0) golden_gamma in
  Bytes.set_int64_le t 0 z;
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let bits64 t = next_int64 t

let split t = of_state (next_int64 t)

(* OCaml ints are 63-bit; keep the draw within [0, 2^62). *)
let nonneg t = Int64.to_int (Int64.shift_right_logical (next_int64 t) 2)

let int t n =
  assert (n > 0);
  nonneg t mod n

let int_in t ~lo ~hi =
  assert (hi >= lo);
  lo + int t (hi - lo + 1)

let bool t = Int64.logand (next_int64 t) 1L = 1L

let[@inline] float t x =
  let mantissa = Int64.to_float (Int64.shift_right_logical (next_int64 t) 11) in
  x *. (mantissa /. 9007199254740992.0 (* 2^53 *))

let chance t p = if p <= 0.0 then false else if p >= 1.0 then true else float t 1.0 < p

let pick t arr =
  assert (Array.length arr > 0);
  arr.(int t (Array.length arr))

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done
