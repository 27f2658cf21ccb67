let bucket_count = 63

type t = {
  name : string;
  mutable counts : int array;
      (* counts.(i) holds samples in [2^(i-1), 2^i), bucket 0 = {0}; [||]
         until the first sample *)
  mutable total : int;
  mutable sum : int;
  mutable min_v : int;
  mutable max_v : int;
}

let create name =
  {
    name;
    counts = [||];
    total = 0;
    sum = 0;
    min_v = max_int;
    max_v = min_int;
  }

let name t = t.name

(* Bucket 0 holds the value 0; bucket i>=1 holds [2^(i-1), 2^i). *)
let bucket_of_value v =
  if v = 0 then 0
  else
    let rec bits acc v = if v = 0 then acc else bits (acc + 1) (v lsr 1) in
    bits 0 v

let bucket_lo i = if i = 0 then 0 else 1 lsl (i - 1)
let bucket_hi i = if i = 0 then 0 else (1 lsl i) - 1
let count_at t i = if Array.length t.counts = 0 then 0 else t.counts.(i)

let add_at t i c =
  if Array.length t.counts = 0 then t.counts <- Array.make bucket_count 0;
  t.counts.(i) <- t.counts.(i) + c

let observe t v =
  if v < 0 then invalid_arg "Histogram.observe: negative sample";
  add_at t (bucket_of_value v) 1;
  t.total <- t.total + 1;
  t.sum <- t.sum + v;
  if v < t.min_v then t.min_v <- v;
  if v > t.max_v then t.max_v <- v

let count t = t.total
let sum t = t.sum

let require_nonempty t fn =
  if t.total = 0 then invalid_arg (Printf.sprintf "Histogram.%s: empty histogram" fn)

let min_value t =
  require_nonempty t "min_value";
  t.min_v

let max_value t =
  require_nonempty t "max_value";
  t.max_v

let mean t = if t.total = 0 then 0.0 else float_of_int t.sum /. float_of_int t.total

let percentile t p =
  require_nonempty t "percentile";
  let p = if p < 0.0 then 0.0 else if p > 1.0 then 1.0 else p in
  let target = int_of_float (ceil (p *. float_of_int t.total)) in
  let target = if target < 1 then 1 else target in
  let rec scan i seen =
    if i >= bucket_count then t.max_v
    else
      let seen = seen + count_at t i in
      if seen >= target then min (bucket_hi i) t.max_v else scan (i + 1) seen
  in
  scan 0 0

(* Non-raising variant for SLO evaluation: an objective over a metric that
   recorded no samples must render as "no data", not crash the verdict
   table.  q = 1.0 returns the exact recorded maximum (not a bucket upper
   bound), so "p100 <= bound" is an exact check. *)
let quantile t q =
  if t.total = 0 then None
  else if q >= 1.0 then Some t.max_v
  else Some (percentile t q)

let merge a b =
  let t = create a.name in
  for i = 0 to bucket_count - 1 do
    add_at t i (count_at a i + count_at b i)
  done;
  t.total <- a.total + b.total;
  t.sum <- a.sum + b.sum;
  t.min_v <- min a.min_v b.min_v;
  t.max_v <- max a.max_v b.max_v;
  t

(* Restore a histogram from a serialized bucket dump (the metrics JSONL
   stream's "hist" lines).  Each bucket's [lo] uniquely identifies its index,
   so restore . dump is the identity and restored histograms merge exactly
   like the originals. *)
let of_dump ~name ~sum ~min_v ~max_v dump =
  let t = create name in
  List.iter
    (fun (lo, c) ->
      if c < 0 then invalid_arg "Histogram.of_dump: negative count";
      let i = bucket_of_value lo in
      if bucket_lo i <> lo then
        invalid_arg (Printf.sprintf "Histogram.of_dump: %d is not a bucket boundary" lo);
      add_at t i c;
      t.total <- t.total + c)
    dump;
  if t.total > 0 then begin
    t.sum <- sum;
    t.min_v <- min_v;
    t.max_v <- max_v
  end;
  t

let buckets t =
  let acc = ref [] in
  for i = bucket_count - 1 downto 0 do
    if count_at t i > 0 then acc := (bucket_lo i, bucket_hi i, count_at t i) :: !acc
  done;
  !acc

let pp fmt t =
  if t.total = 0 then Format.fprintf fmt "%s: (empty)" t.name
  else
    Format.fprintf fmt "%s: n=%d mean=%.1f min=%d max=%d p50=%d p99=%d" t.name t.total
      (mean t) t.min_v t.max_v (percentile t 0.5) (percentile t 0.99)
