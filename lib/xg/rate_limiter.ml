module Engine = Xguard_sim.Engine

type t = {
  engine : Engine.t;
  tokens_per_cycle : float;
  burst : float;
  mutable tokens : float;
  mutable last_refill : Engine.time;
  mutable delayed : int;
  queue : (unit -> unit) Queue.t;
  mutable draining : bool;
}

let create ~engine ~tokens_per_cycle ~burst () =
  if tokens_per_cycle <= 0.0 then invalid_arg "Rate_limiter.create: rate must be positive";
  (* A zero-capacity bucket can never hold a whole token: [refill] caps at
     [burst], so every admit would requeue forever — reject it up front. *)
  if burst <= 0 then invalid_arg "Rate_limiter.create: burst must be positive";
  {
    engine;
    tokens_per_cycle;
    burst = float_of_int burst;
    tokens = float_of_int burst;
    last_refill = 0;
    delayed = 0;
    queue = Queue.create ();
    draining = false;
  }

let refill t =
  let now = Engine.now t.engine in
  let elapsed = now - t.last_refill in
  if elapsed > 0 then begin
    t.tokens <- Float.min t.burst (t.tokens +. (float_of_int elapsed *. t.tokens_per_cycle));
    t.last_refill <- now
  end

let delayed t = t.delayed

let cycles_until_token t =
  if t.tokens >= 1.0 then 0
  else int_of_float (ceil ((1.0 -. t.tokens) /. t.tokens_per_cycle))

let rec drain t =
  refill t;
  if Queue.is_empty t.queue then t.draining <- false
  else if t.tokens >= 1.0 then begin
    t.tokens <- t.tokens -. 1.0;
    let action = Queue.pop t.queue in
    action ();
    drain t
  end
  else Engine.schedule t.engine ~delay:(max 1 (cycles_until_token t)) (fun () -> drain t)

let admit t action =
  refill t;
  if (not t.draining) && Queue.is_empty t.queue && t.tokens >= 1.0 then begin
    t.tokens <- t.tokens -. 1.0;
    action ()
  end
  else begin
    t.delayed <- t.delayed + 1;
    Queue.push action t.queue;
    if not t.draining then begin
      t.draining <- true;
      Engine.schedule t.engine ~delay:(max 1 (cycles_until_token t)) (fun () -> drain t)
    end
  end
