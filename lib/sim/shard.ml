(* Per-logical-domain execution context for the sharded (PDES) engine.

   A parallel run partitions the system into logical domains (0 = host, one
   per guard's accelerator stack), each with its own {!Engine}.  While a
   domain's engine executes a conservative time window, the worker installs
   that domain's [ctx] here (domain-local storage), and two kinds of effects
   are captured instead of performed:

   - {b deferred observability ops} ([defer]): trace ring writes and span
     recorder mutations, stamped with the simulated timestamp.  The
     coordinator replays them at the window barrier in canonical
     (timestamp, domain, sequence) order against the single armed
     recorder/ring, so the artifacts are byte-identical no matter how many
     OS workers executed the windows.
   - {b cross-domain messages} ([post]): a closure that schedules the
     delivery on the destination domain's engine.  The coordinator runs
     these at the barrier in canonical (delivery-time, domain, sequence)
     order, so heap insertion order — and hence same-cycle tie-breaking on
     the destination engine — is identical for any worker count.

   Determinism argument: the logical decomposition and the window schedule
   depend only on (config, seed); the worker count only maps logical domains
   onto OS threads.  Within a window each engine runs single-threaded and
   touches only domain-local state, and everything that escapes a domain
   goes through the two canonically-ordered drains above. *)

type ctx = {
  dom : int;
  span_salt : int;
  mutable next_span : int;
  (* Deferred ops and cross-domain posts, newest first; [seq]s are
     per-context and monotonically increasing across windows, so a sort by
     (ts, dom, seq) reconstructs per-domain program order globally. *)
  mutable ops : (int * int * (unit -> unit)) list; (* ts, seq, run *)
  mutable op_seq : int;
  mutable posts : (int * int * (unit -> unit)) list; (* at, seq, schedule *)
  mutable post_seq : int;
}

(* Span ids drawn inside a domain are salted so they never collide across
   domains; 2^30 ids per domain is far beyond any run's span count. *)
let salt_stride = 1 lsl 30

let make ~dom =
  {
    dom;
    span_salt = dom * salt_stride;
    next_span = 0;
    ops = [];
    op_seq = 0;
    posts = [];
    post_seq = 0;
  }

let key : ctx option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let current () = Domain.DLS.get key

let with_ctx c f =
  let prev = Domain.DLS.get key in
  Domain.DLS.set key (Some c);
  Fun.protect ~finally:(fun () -> Domain.DLS.set key prev) f

let defer c ~ts run =
  c.ops <- (ts, c.op_seq, run) :: c.ops;
  c.op_seq <- c.op_seq + 1

let post c ~at sched =
  c.posts <- (at, c.post_seq, sched) :: c.posts;
  c.post_seq <- c.post_seq + 1

let fresh_span_id c =
  c.next_span <- c.next_span + 1;
  c.span_salt + c.next_span

(* ---- coordinator-side drains ---- *)

type op = { op_ts : int; op_dom : int; op_seq : int; op_run : unit -> unit }

let drain field clear ctxs =
  let acc = ref [] in
  Array.iter
    (fun c ->
      List.iter
        (fun (ts, seq, run) ->
          acc := { op_ts = ts; op_dom = c.dom; op_seq = seq; op_run = run } :: !acc)
        (field c);
      clear c)
    ctxs;
  let arr = Array.of_list !acc in
  Array.sort
    (fun a b ->
      let c = compare a.op_ts b.op_ts in
      if c <> 0 then c
      else
        let c = compare a.op_dom b.op_dom in
        if c <> 0 then c else compare a.op_seq b.op_seq)
    arr;
  arr

let drain_ops ctxs = drain (fun c -> c.ops) (fun c -> c.ops <- []) ctxs
let drain_posts ctxs = drain (fun c -> c.posts) (fun c -> c.posts <- []) ctxs

let run_all arr = Array.iter (fun o -> o.op_run ()) arr
