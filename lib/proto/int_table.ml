(* Separate chaining over a power-of-two bucket array, like the stdlib's
   tables, with the hash and the key comparison inlined.  A key is bound at
   most once, so the order inside a bucket is immaterial.  The bucket array
   is made on the first binding: an empty table holds [||], and every probe
   of an empty table answers without hashing. *)
type 'a bucket = Empty | Cons of { key : int; mutable data : 'a; mutable next : 'a bucket }

type 'a t = { mutable size : int; mutable buckets : 'a bucket array; initial : int }

let create n =
  let rec pow2 x = if x >= n then x else pow2 (2 * x) in
  { size = 0; buckets = [||]; initial = pow2 16 }

(* Multiplicative hashing: the bucket index comes from the product's middle
   bits, so strided keys (page-aligned blocks, packed node pairs) spread as
   well as dense ones. *)
let[@inline] index buckets k = ((k * 0x2545F4914F6CDD1D) lsr 32) land (Array.length buckets - 1)

let length t = t.size

let reset t =
  t.size <- 0;
  t.buckets <- [||]

let rec find_in k = function
  | Empty -> raise_notrace Not_found
  | Cons c -> if c.key = k then c.data else find_in k c.next

let find t k =
  if t.size = 0 then raise_notrace Not_found else find_in k t.buckets.(index t.buckets k)

let rec find_opt_in k = function
  | Empty -> None
  | Cons c -> if c.key = k then Some c.data else find_opt_in k c.next

let find_opt t k = if t.size = 0 then None else find_opt_in k t.buckets.(index t.buckets k)

let rec mem_in k = function Empty -> false | Cons c -> c.key = k || mem_in k c.next
let mem t k = t.size > 0 && mem_in k t.buckets.(index t.buckets k)

let rec rehash buckets = function
  | Empty -> ()
  | Cons c ->
      let i = index buckets c.key in
      buckets.(i) <- Cons { key = c.key; data = c.data; next = buckets.(i) };
      rehash buckets c.next

let rec replace_in k v = function
  | Empty -> false
  | Cons c ->
      if c.key = k then begin
        c.data <- v;
        true
      end
      else replace_in k v c.next

let replace t k v =
  if Array.length t.buckets = 0 then t.buckets <- Array.make t.initial Empty;
  let i = index t.buckets k in
  if not (replace_in k v t.buckets.(i)) then begin
    t.buckets.(i) <- Cons { key = k; data = v; next = t.buckets.(i) };
    t.size <- t.size + 1;
    if t.size > 2 * Array.length t.buckets then begin
      let old = t.buckets in
      t.buckets <- Array.make (2 * Array.length old) Empty;
      Array.iter (rehash t.buckets) old
    end
  end

(* Unlink [k] from the chain that follows [prev] (the bucket head when
   [prev] is [Empty]). *)
let rec remove_in t i k prev = function
  | Empty -> ()
  | Cons c as b ->
      if c.key = k then begin
        t.size <- t.size - 1;
        match prev with Empty -> t.buckets.(i) <- c.next | Cons p -> p.next <- c.next
      end
      else remove_in t i k b c.next

let remove t k =
  if t.size > 0 then begin
    let i = index t.buckets k in
    remove_in t i k Empty t.buckets.(i)
  end

let rec fold_in f acc = function Empty -> acc | Cons c -> fold_in f (f c.key c.data acc) c.next
let fold f t acc = Array.fold_left (fold_in f) acc t.buckets
let iter f t = Array.iter (fold_in (fun k v () -> f k v) ()) t.buckets

let sorted_bindings t =
  if t.size = 0 then []
  else
    fold (fun k v acc -> (k, v) :: acc) t []
    |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
