type time = int

(* Binary min-heap on (at, seq), kept as four parallel arrays: timestamps,
   sequence numbers and choice tags live in unboxed int arrays — comparisons
   and sift moves touch no pointers — and only the thunk column pays the GC
   write barrier.  Sifting moves a hole instead of swapping, so each level
   costs one store per column rather than two.  No per-event record is
   allocated. *)
type t = {
  mutable at_h : int array;
  mutable seq_h : int array;
  mutable tag_h : int array;
  mutable thunk_h : (unit -> unit) array;
  mutable size : int;
  mutable now : time;
  mutable next_seq : int;
  mutable fired : int;
  mutable stop_requested : bool;
  (* The observer sampler ([set_sampler]): the next boundary it samples
     ([max_int] while none is installed), its period and function, and
     [fired] as of its last sample. *)
  mutable tick_at : int;
  mutable tick_period : int;
  mutable tick : int -> unit;
  mutable ticked_fired : int;
  (* Checker scratch ([choices], [pending_summary]): heap indices, grown to
     the heap's capacity on first use.  Two arrays, because a fingerprint
     (which walks the pending events) is taken while a choice pool is live. *)
  mutable pool : int array;
  mutable order : int array;
}

(* Sized for the tiny systems the model checker rebuilds once per path;
   [grow] doubles it for anything bigger. *)
let create () =
  {
    at_h = Array.make 16 0;
    seq_h = Array.make 16 0;
    tag_h = Array.make 16 0;
    thunk_h = Array.make 16 ignore;
    size = 0;
    now = 0;
    next_seq = 0;
    fired = 0;
    stop_requested = false;
    tick_at = max_int;
    tick_period = 0;
    tick = ignore;
    ticked_fired = -1;
    pool = [||];
    order = [||];
  }

let now t = t.now
let pending t = t.size
let events_fired t = t.fired
let stop t = t.stop_requested <- true

let grow t =
  let cap = 2 * Array.length t.at_h in
  let at = Array.make cap 0 and seq = Array.make cap 0 and tag = Array.make cap 0 in
  let thunk = Array.make cap ignore in
  Array.blit t.at_h 0 at 0 t.size;
  Array.blit t.seq_h 0 seq 0 t.size;
  Array.blit t.tag_h 0 tag 0 t.size;
  Array.blit t.thunk_h 0 thunk 0 t.size;
  t.at_h <- at;
  t.seq_h <- seq;
  t.tag_h <- tag;
  t.thunk_h <- thunk

let push t at seq tag thunk =
  if t.size = Array.length t.at_h then grow t;
  let i = ref t.size in
  t.size <- t.size + 1;
  let continue = ref true in
  while !continue && !i > 0 do
    let p = (!i - 1) / 2 in
    let pat = t.at_h.(p) in
    if at < pat || (at = pat && seq < t.seq_h.(p)) then begin
      t.at_h.(!i) <- pat;
      t.seq_h.(!i) <- t.seq_h.(p);
      t.tag_h.(!i) <- t.tag_h.(p);
      t.thunk_h.(!i) <- t.thunk_h.(p);
      i := p
    end
    else continue := false
  done;
  t.at_h.(!i) <- at;
  t.seq_h.(!i) <- seq;
  t.tag_h.(!i) <- tag;
  t.thunk_h.(!i) <- thunk

(* Caller reads the root's fields before calling; this just deletes it. *)
let remove_root t =
  t.size <- t.size - 1;
  let n = t.size in
  let at = t.at_h.(n) and seq = t.seq_h.(n) and tag = t.tag_h.(n) in
  let thunk = t.thunk_h.(n) in
  t.thunk_h.(n) <- ignore;
  if n > 0 then begin
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 in
      let r = l + 1 in
      let s = ref !i and sat = ref at and sseq = ref seq in
      if l < n && (t.at_h.(l) < !sat || (t.at_h.(l) = !sat && t.seq_h.(l) < !sseq))
      then begin
        s := l;
        sat := t.at_h.(l);
        sseq := t.seq_h.(l)
      end;
      if r < n && (t.at_h.(r) < !sat || (t.at_h.(r) = !sat && t.seq_h.(r) < !sseq))
      then s := r;
      if !s <> !i then begin
        t.at_h.(!i) <- t.at_h.(!s);
        t.seq_h.(!i) <- t.seq_h.(!s);
        t.tag_h.(!i) <- t.tag_h.(!s);
        t.thunk_h.(!i) <- t.thunk_h.(!s);
        i := !s
      end
      else continue := false
    done;
    t.at_h.(!i) <- at;
    t.seq_h.(!i) <- seq;
    t.tag_h.(!i) <- tag;
    t.thunk_h.(!i) <- thunk
  end

let schedule_at t at ?(tag = 0) thunk =
  if at < t.now then
    invalid_arg
      (Printf.sprintf "Engine.schedule_at: time %d is in the past (now=%d)" at t.now);
  push t at t.next_seq tag thunk;
  t.next_seq <- t.next_seq + 1

let schedule t ~delay ?(tag = 0) thunk =
  if delay < 0 then invalid_arg "Engine.schedule: negative delay";
  schedule_at t (t.now + delay) ~tag thunk

type run_result = Drained | Hit_time_limit | Hit_event_limit | Stopped

(* Per-domain total across all engines, bumped once per [run] call (not per
   event), so the bench harness can attribute events/sec to a code region
   without racing between worker domains. *)
let domain_fired : int ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref 0)

let events_fired_here () = !(Domain.DLS.get domain_fired)

let set_sampler t ~period f =
  if period <= 0 then invalid_arg "Engine.set_sampler: period must be positive";
  t.tick_period <- period;
  t.tick_at <- ((t.now / period) + 1) * period;
  t.tick <- f

let sample t at =
  t.ticked_fired <- t.fired;
  t.tick at

(* Every boundary up to [bound], in order.  Called before the first event
   later than a boundary fires, so each sample sees every event at or before
   its boundary, and idle gaps are sampled like busy ones. *)
let sample_through t bound =
  while t.tick_at <= bound do
    let b = t.tick_at in
    t.tick_at <- b + t.tick_period;
    sample t b
  done

let run ?until ?max_events t =
  t.stop_requested <- false;
  let fired_at_start = t.fired in
  let result = ref Drained in
  let continue = ref true in
  while !continue do
    if t.size = 0 then begin
      result := Drained;
      continue := false
    end
    else if t.stop_requested then begin
      result := Stopped;
      continue := false
    end
    else begin
      let over_time =
        match until with Some u -> t.at_h.(0) > u | None -> false
      in
      let over_events =
        match max_events with
        | Some m -> t.fired - fired_at_start >= m
        | None -> false
      in
      if over_time then begin
        (match until with Some u -> t.now <- max t.now u | None -> ());
        result := Hit_time_limit;
        continue := false
      end
      else if over_events then begin
        result := Hit_event_limit;
        continue := false
      end
      else begin
        let at = t.at_h.(0) in
        if at > t.tick_at then sample_through t (at - 1);
        let thunk = t.thunk_h.(0) in
        remove_root t;
        t.now <- at;
        t.fired <- t.fired + 1;
        thunk ()
      end
    end
  done;
  (* The run stops here: sample the boundaries its clock reached, then the
     stop cycle itself unless no event fired since the last sample. *)
  if t.tick_period > 0 then begin
    sample_through t t.now;
    if t.ticked_fired <> t.fired then sample t t.now
  end;
  let c = Domain.DLS.get domain_fired in
  c := !c + (t.fired - fired_at_start);
  !result

let every t ~period ?(phase = 0) f =
  if period <= 0 then invalid_arg "Engine.every: period must be positive";
  let rec tick () = if f () then schedule t ~delay:period tick in
  schedule t ~delay:phase tick

(* ---- scheduler-choice layer (lib/check) ---- *)

let no_tag = 0
let tag_addr_bits = 24
let tag_addr_mask = (1 lsl tag_addr_bits) - 1

let pack_tag ~ctrl ~addr =
  ((ctrl + 1) lsl tag_addr_bits) lor ((addr + 1) land tag_addr_mask)

let tag_ctrl tag = tag lsr tag_addr_bits
let tag_addr tag = tag land tag_addr_mask

let tags_conflict a b =
  a = no_tag || b = no_tag || tag_ctrl a = tag_ctrl b || tag_addr a = tag_addr b

let scratch t a = if Array.length a < t.size then Array.make (Array.length t.at_h) 0 else a

(* Sort heap indices [a.(0..n-1)] by time, then by the column [second]
   ([t.seq_h] for scheduling order, [t.tag_h] for choice tags).  Insertion
   sort: pools and queues in check configurations hold a few dozen events. *)
let sort_indices t second a n =
  for i = 1 to n - 1 do
    let k = a.(i) in
    let at = t.at_h.(k) and s = second.(k) in
    let j = ref (i - 1) in
    while
      !j >= 0
      &&
      let p = a.(!j) in
      t.at_h.(p) > at || (t.at_h.(p) = at && second.(p) > s)
    do
      a.(!j + 1) <- a.(!j);
      decr j
    done;
    a.(!j + 1) <- k
  done

(* The events sharing the root's timestamp form a subtree containing the
   root (heap order), so a breadth-first walk that stops at later children
   finds them all; [pool] doubles as the walk's queue. *)
let choices t =
  if t.size = 0 then 0
  else begin
    t.pool <- scratch t t.pool;
    let pool = t.pool and min_at = t.at_h.(0) in
    pool.(0) <- 0;
    let n = ref 1 and i = ref 0 in
    while !i < !n do
      let l = (2 * pool.(!i)) + 1 in
      if l < t.size && t.at_h.(l) = min_at then begin
        pool.(!n) <- l;
        incr n
      end;
      if l + 1 < t.size && t.at_h.(l + 1) = min_at then begin
        pool.(!n) <- l + 1;
        incr n
      end;
      incr i
    done;
    sort_indices t t.seq_h pool !n;
    !n
  end

let choice_key t i = t.pool.(i)
let choice_tag t i = t.tag_h.(t.pool.(i))

(* Generalized heap deletion, for firing a non-root candidate.  Swap-based
   sifts (rather than the hole-based ones above): this is a checker-only path
   where clarity beats the last store. *)
let heap_less t i j =
  t.at_h.(i) < t.at_h.(j) || (t.at_h.(i) = t.at_h.(j) && t.seq_h.(i) < t.seq_h.(j))

let heap_swap t i j =
  let at = t.at_h.(i) and seq = t.seq_h.(i) and tag = t.tag_h.(i) in
  let thunk = t.thunk_h.(i) in
  t.at_h.(i) <- t.at_h.(j);
  t.seq_h.(i) <- t.seq_h.(j);
  t.tag_h.(i) <- t.tag_h.(j);
  t.thunk_h.(i) <- t.thunk_h.(j);
  t.at_h.(j) <- at;
  t.seq_h.(j) <- seq;
  t.tag_h.(j) <- tag;
  t.thunk_h.(j) <- thunk

let sift_up t k =
  let i = ref k in
  while !i > 0 && heap_less t !i ((!i - 1) / 2) do
    let p = (!i - 1) / 2 in
    heap_swap t !i p;
    i := p
  done

let sift_down t k =
  let i = ref k and continue = ref true in
  while !continue do
    let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
    let s = ref !i in
    if l < t.size && heap_less t l !s then s := l;
    if r < t.size && heap_less t r !s then s := r;
    if !s <> !i then begin
      heap_swap t !i !s;
      i := !s
    end
    else continue := false
  done

let fire_choice t ~key =
  if key < 0 || key >= t.size then invalid_arg "Engine.fire_choice: stale key";
  if t.at_h.(key) <> t.at_h.(0) then
    invalid_arg "Engine.fire_choice: key is not a minimal-time event";
  let at = t.at_h.(key) and thunk = t.thunk_h.(key) in
  (* Most fired candidates are the FIFO head, the root: delete it as [run]
     does.  Keys are heap indices, so the layout left behind only renames
     later keys; no pool order or summary depends on it. *)
  if key = 0 then remove_root t
  else begin
    let n = t.size - 1 in
    if key <> n then heap_swap t key n;
    t.size <- n;
    t.thunk_h.(n) <- ignore;
    if key < n then begin
      sift_up t key;
      sift_down t key
    end
  end;
  t.now <- at;
  t.fired <- t.fired + 1;
  thunk ()

(* By (time, tag), not (time, seq): the horizon is a multiset, so two heaps
   holding the same same-cycle events in another scheduling order write the
   same bytes (see engine.mli). *)
let pending_summary t f =
  t.order <- scratch t t.order;
  let order = t.order in
  for i = 0 to t.size - 1 do
    order.(i) <- i
  done;
  sort_indices t t.tag_h order t.size;
  for i = 0 to t.size - 1 do
    let k = order.(i) in
    f (t.at_h.(k) - t.now) t.tag_h.(k)
  done
