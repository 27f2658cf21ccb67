(* Benchmark-side timing: every call the benchmark makes into a layer's public
   function goes through [call], which charges its host time to the set-up
   or run phase (checks and grouping spans are charged to neither) and, when
   the tracer is on, records a span.

   Spans are the benchmark's own (around library calls, never inside them):
   name, start, end, parent and job id, kept in memory and written at exit as
   Chrome trace-event JSON that Perfetto loads.  Port-issue timings are
   aggregated counters ([port_stats]), not one span per call. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

type phase = Setup | Run | Other

type span = {
  name : string;
  start : int;
  mutable stop : int;
  parent : int;  (* index into the span table, -1 for a root *)
  job : int;
}

type t = {
  on : bool;
  mutable spans : span array;
  mutable n : int;
  mutable open_ : int list;  (* stack of open span indices *)
  mutable job : int;
  mutable setup_ns : int;
  mutable run_ns : int;
}

let create ~on =
  { on; spans = [||]; n = 0; open_ = []; job = -1; setup_ns = 0; run_ns = 0 }

let setup_s t = float_of_int t.setup_ns *. 1e-9
let run_s t = float_of_int t.run_ns *. 1e-9

let push t sp =
  if t.n = Array.length t.spans then begin
    let grown = Array.make (max 64 (2 * t.n)) sp in
    Array.blit t.spans 0 grown 0 t.n;
    t.spans <- grown
  end;
  t.spans.(t.n) <- sp;
  t.n <- t.n + 1;
  t.n - 1

let charge t phase ns =
  match phase with
  | Setup -> t.setup_ns <- t.setup_ns + ns
  | Run -> t.run_ns <- t.run_ns + ns
  | Other -> ()

(* Time [f] into [phase]; with the tracer on, also record it as a span nested
   under whichever span is open. *)
let call t phase name f =
  let start = now_ns () in
  let idx =
    if not t.on then -1
    else begin
      let parent = match t.open_ with p :: _ -> p | [] -> -1 in
      let i = push t { name; start; stop = start; parent; job = t.job } in
      t.open_ <- i :: t.open_;
      i
    end
  in
  let finish () =
    let stop = now_ns () in
    charge t phase (stop - start);
    if idx >= 0 then begin
      t.spans.(idx).stop <- stop;
      t.open_ <- List.tl t.open_
    end
  in
  match f () with
  | r ->
      finish ();
      r
  | exception e ->
      finish ();
      raise e

let setup t name f = call t Setup name f
let run t name f = call t Run name f
let check t name f = call t Other name f

(* A job groups the calls of one simulated run; its id tags every span
   opened inside it. *)
let job t ~id name f =
  let saved = t.job in
  t.job <- id;
  Fun.protect ~finally:(fun () -> t.job <- saved) (fun () -> call t Other name f)

(* Self time per span name: a span's duration minus the part its direct
   children cover (children never overlap — the benchmark is sequential). *)
let self_times t =
  let child_ns = Array.make t.n 0 in
  for i = 0 to t.n - 1 do
    let s = t.spans.(i) in
    if s.parent >= 0 then child_ns.(s.parent) <- child_ns.(s.parent) + (s.stop - s.start)
  done;
  let tbl = Hashtbl.create 16 in
  let order = ref [] in
  for i = 0 to t.n - 1 do
    let s = t.spans.(i) in
    let self = s.stop - s.start - child_ns.(i) in
    match Hashtbl.find_opt tbl s.name with
    | Some (calls, ns) -> Hashtbl.replace tbl s.name (calls + 1, ns + self)
    | None ->
        order := s.name :: !order;
        Hashtbl.replace tbl s.name (1, self)
  done;
  List.rev_map
    (fun name ->
      let calls, ns = Hashtbl.find tbl name in
      (name, calls, float_of_int ns *. 1e-9))
    !order

let write_chrome oc t =
  let t0 = if t.n > 0 then t.spans.(0).start else 0 in
  let us ns = float_of_int ns /. 1000. in
  output_string oc "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n";
  output_string oc
    "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,\"args\":{\"name\":\"xbench\"}}";
  for i = 0 to t.n - 1 do
    let s = t.spans.(i) in
    Printf.fprintf oc
      ",\n{\"name\":%s,\"cat\":\"xbench\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d,\"job\":%d}}"
      (Xguard_obs.Json.quote s.name) (us (s.start - t0)) (us (s.stop - s.start)) i s.parent
      s.job
  done;
  output_string oc "\n]}\n"

(* ---- aggregated port counters ---- *)

type port_stats = { mutable issues : int; mutable accepts : int; mutable issue_ns : int }

let port_stats () = { issues = 0; accepts = 0; issue_ns = 0 }

(* Count and time every [issue] a sequencer makes on [port].  The wrapper
   schedules nothing, so the simulation is unchanged. *)
let wrap_port ps (port : Access.port) : Access.port =
  {
    Access.issue =
      (fun access ~on_done ->
        let t0 = now_ns () in
        let ok = port.Access.issue access ~on_done in
        ps.issue_ns <- ps.issue_ns + (now_ns () - t0);
        ps.issues <- ps.issues + 1;
        if ok then ps.accepts <- ps.accepts + 1;
        ok);
  }
