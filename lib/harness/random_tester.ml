module Engine = Xguard_sim.Engine
module Rng = Xguard_sim.Rng
module Trace = Xguard_trace.Trace
module Obs = Xguard_obs.Obs

type role = Mixed | Producer | Consumer

type outcome = {
  ops_completed : int;
  data_errors : int;
  deadlocked : bool;
  cycles : int;
  first_error_addr : int option;
  ops_per_port : int array;
}

let merge a b =
  {
    ops_completed = a.ops_completed + b.ops_completed;
    data_errors = a.data_errors + b.data_errors;
    deadlocked = a.deadlocked || b.deadlocked;
    cycles = a.cycles + b.cycles;
    first_error_addr =
      (match a.first_error_addr with Some _ as x -> x | None -> b.first_error_addr);
    ops_per_port =
      (let n = max (Array.length a.ops_per_port) (Array.length b.ops_per_port) in
       Array.init n (fun i ->
           let get arr = if i < Array.length arr then arr.(i) else 0 in
           get a.ops_per_port + get b.ops_per_port));
  }

(* Per-address checker state: the log of committed store values (so a load can
   be validated against everything committed since it was issued) and the
   single in-flight store, if any. *)
type addr_state = {
  mutable committed : Data.t list;  (* newest first; head is current value *)
  mutable committed_count : int;
  mutable pending_store : Data.t option;
}

type t = {
  engine : Engine.t;
  rng : Rng.t;
  sequencers : Sequencer.t array;
  roles : role array;
  addresses : Addr.t array;
  states : addr_state Int_table.t;
  store_fraction : float;
  max_gap : int;
  ops_per_core : int;
  completed_per : int array;
  mutable completed : int;
  mutable errors : int;
  mutable first_error_addr : int option;
  mutable next_token : int;
}

let state_of t addr =
  match Int_table.find_opt t.states addr with
  | Some s -> s
  | None ->
      let s =
        { committed = [ Data.initial addr ]; committed_count = 1; pending_store = None }
      in
      Int_table.replace t.states addr s;
      s

(* Values a load issued when [issue_count] values had been committed may
   legally observe now: anything committed since, or the in-flight store. *)
let load_ok st ~issue_count value =
  let visible_len = st.committed_count - issue_count + 1 in
  let rec among n = function
    | [] -> false
    | v :: rest -> n > 0 && (Data.equal v value || among (n - 1) rest)
  in
  among visible_len st.committed
  || match st.pending_store with Some v -> Data.equal v value | None -> false

let issue_one t core =
  let seq = t.sequencers.(core) in
  let addr = Rng.pick t.rng t.addresses in
  let st = state_of t addr in
  let do_store =
    (* [Mixed] draws exactly as the role-less tester did (the chance draw is
       short-circuited away while a store is pending), so default runs keep
       their historical RNG stream; the fixed roles draw nothing extra. *)
    match t.roles.(core) with
    | Mixed -> st.pending_store = None && Rng.chance t.rng t.store_fraction
    | Producer -> st.pending_store = None
    | Consumer -> false
  in
  let complete () =
    t.completed <- t.completed + 1;
    t.completed_per.(core) <- t.completed_per.(core) + 1
  in
  if do_store then begin
    t.next_token <- t.next_token + 1;
    let v = Data.token t.next_token in
    st.pending_store <- Some v;
    Sequencer.request seq (Access.store addr v) ~on_complete:(fun _ ~latency:_ ->
        st.pending_store <- None;
        st.committed <- v :: st.committed;
        st.committed_count <- st.committed_count + 1;
        complete ())
  end
  else begin
    let issue_count = st.committed_count in
    let issued_at = Engine.now t.engine in
    Sequencer.request seq (Access.load addr) ~on_complete:(fun v ~latency:_ ->
        if not (load_ok st ~issue_count v) then begin
          t.errors <- t.errors + 1;
          if t.first_error_addr = None then t.first_error_addr <- Some (Addr.to_int addr);
          (match Obs.trace () with
          | Some tr ->
              Trace.note tr ~cycle:(Engine.now t.engine)
                ~controller:(Sequencer.name seq) ~addr:(Addr.to_int addr)
                ~text:
                  (Printf.sprintf
                     "DATA ERROR: core=%d got=%d committed_head=%d pending=%s issued@%d" core
                     v
                     (match st.committed with x :: _ -> x | [] -> -1)
                     (match st.pending_store with Some x -> string_of_int x | None -> "-")
                     issued_at)
                ()
          | None -> ());
          if Sys.getenv_opt "XGUARD_DEBUG" <> None then
            Printf.eprintf
              "DATA ERROR: core=%d addr=%d got=%d committed_head=%d pending=%s issue@%d done@%d\n%!"
              core (Addr.to_int addr) v
              (match st.committed with x :: _ -> x | [] -> -1)
              (match st.pending_store with Some x -> string_of_int x | None -> "-")
              issued_at (Engine.now t.engine)
        end;
        complete ())
  end

let prepare ~engine ~rng ~ports ?roles ~addresses ~ops_per_core
    ?(store_fraction = 0.5) ?(max_gap = 20) () =
  let roles =
    match roles with
    | Some r ->
        assert (Array.length r = Array.length ports);
        r
    | None -> Array.make (Array.length ports) Mixed
  in
  let sequencers =
    Array.mapi
      (fun i port ->
        Sequencer.create ~engine ~name:(Printf.sprintf "tester.core%d" i) ~port
          ~max_outstanding:4 ())
      ports
  in
  let t =
    {
      engine;
      rng;
      sequencers;
      roles;
      addresses;
      states = Int_table.create 64;
      store_fraction;
      max_gap;
      ops_per_core;
      completed_per = Array.make (Array.length ports) 0;
      completed = 0;
      errors = 0;
      first_error_addr = None;
      next_token = 1_000_000;
    }
  in
  (* Each core issues its ops at random intervals. *)
  Array.iteri
    (fun core _ ->
      let rec inject remaining =
        if remaining > 0 then
          Engine.schedule engine ~delay:(1 + Rng.int t.rng t.max_gap) (fun () ->
              issue_one t core;
              inject (remaining - 1))
      in
      inject ops_per_core)
    sequencers;
  t

let finish t ~drained =
  let total = t.ops_per_core * Array.length t.sequencers in
  let deadlocked = (not drained) || t.completed < total in
  {
    ops_completed = t.completed;
    data_errors = t.errors;
    deadlocked;
    cycles = Engine.now t.engine;
    first_error_addr = t.first_error_addr;
    ops_per_port = t.completed_per;
  }

let run ~engine ~rng ~ports ?roles ~addresses ~ops_per_core ?store_fraction
    ?max_gap ?(event_limit = 50_000_000) () =
  let t =
    prepare ~engine ~rng ~ports ?roles ~addresses ~ops_per_core ?store_fraction
      ?max_gap ()
  in
  let result = Engine.run ~max_events:event_limit engine in
  finish t ~drained:(match result with Engine.Drained -> true | _ -> false)
