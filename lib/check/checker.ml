(** Bounded explicit-state model checker over the deterministic simulation.

    The simulator is already deterministic given (a) which of the events
    sharing the minimal timestamp fires next and (b) which latency each
    unordered-network draw picks.  Both are surfaced as explicit choices
    ({!Xguard_sim.Engine.choices} / the delay-chooser hook), so a whole
    execution is a pure function of its choice string.  The checker runs one
    depth-first search over that choice tree by re-execution: each path
    rebuilds the system from {!Xguard_harness.System.build} and replays its
    recorded prefix — no state copying, no forking.  The prefix carries the
    digests its ancestor recorded, so the replay re-verifies nothing the
    ancestor already checked (see {!run_path}).

    States are canonical fingerprints ({!Xguard_harness.System.t.check_fingerprint}
    plus each driver sequencer and its count of ops left), hashed at every
    decision point, at the root and at drained terminals; a revisited
    fingerprint prunes the subtree.  The fingerprint covers all live state,
    the pending-event horizon as a multiset included, so the future from an
    equal fingerprint is identical (DESIGN.md §10, "Canonical
    fingerprints").

    Partial-order reduction: when several events share the timestamp, a
    candidate whose choice tag conflicts with no other candidate commutes
    with all of them and is fired without branching; the checker only
    branches when some candidate pair may fail to commute (same controller,
    same block, or untagged).  See DESIGN.md §10 for the soundness argument.

    Invariants are asserted after every fired event (SWMR, single-owner,
    data-value, guard G1b, guard inclusivity) and, at drained terminals, the
    stronger quiescent agreement checks plus deadlock detection.  A violation
    yields a minimal counterexample trail replayable with {!replay}. *)

module Engine = Xguard_sim.Engine
module Sys = Xguard_harness.System
module Config = Xguard_harness.Config
module Coverage = Xguard_trace.Coverage
module Trace = Xguard_trace.Trace

(* ---- plans ---- *)

type agent = Cpu of int | Accel of int

type plan = {
  config : Config.t;
  ops : (agent * Access.t list) list;  (* each agent issues its list in order *)
  max_depth : int;  (* choice-tree decisions per path *)
  max_states : int;  (* global distinct-fingerprint budget *)
  por : bool;
}

let agent_label = function
  | Cpu i -> "cpu" ^ string_of_int i
  | Accel i -> "accel" ^ string_of_int i

let pp_agent fmt a = Format.pp_print_string fmt (agent_label a)

let validate plan =
  let cfg = plan.config in
  if cfg.Config.host_net_min < 1 || cfg.Config.link_latency < 1 then
    invalid_arg
      "Checker.validate: all latencies must be >= 1 so a fired event cannot \
       inject new work into the current timestamp pool (POR soundness)";
  if plan.max_depth < 1 || plan.max_states < 1 then
    invalid_arg "Checker.validate: budgets must be positive";
  if Config.reliable_link cfg then
    invalid_arg
      "Checker.validate: the link runs its reliability layer, whose sequence, \
       retry and unacked-window state no fingerprint covers, and whose fault \
       draws are not choices";
  List.iter
    (fun (agent, accesses) ->
      (match agent with
      | Cpu i when i < 0 || i >= cfg.Config.num_cpus ->
          invalid_arg (Printf.sprintf "Checker.validate: no cpu %d in config" i)
      | _ -> ());
      List.iter
        (fun (a : Access.t) ->
          if Addr.to_int a.Access.addr >= (1 lsl 24) - 1 then
            invalid_arg "Checker.validate: block addresses must fit in 24-bit tags")
        accesses)
    plan.ops

(* ---- summaries ---- *)

type violation = { trail : int list; message : string }

(* Canonical summary: the two digests hash the sorted visited-state and edge
   sets, so two summaries are equal iff the explored graphs are. *)
type summary = {
  states : int;
  transitions : int;
  states_digest : string;
  edges_digest : string;
  violations : violation list;  (* the first one found; empty on a healthy model *)
}

(* How the search walked the graph: counts of work, which depend on the
   traversal order, so they stay out of the canonical summary. *)
type diagnostics = {
  paths : int;
  decisions : int;
  por_collapsed : int;  (* multi-candidate pools fired without branching *)
  deepest : int;
  truncated_depth : int;  (* paths cut by the depth budget *)
  truncated_states : bool;  (* state budget reached *)
}

type result = { summary : summary; diagnostics : diagnostics }

let summary_to_string s =
  let vio =
    String.concat ","
      (List.map
         (fun v ->
           Printf.sprintf "{%s|%s}"
             (String.concat ";" (List.map string_of_int v.trail))
             v.message)
         s.violations)
  in
  Printf.sprintf "states=%d transitions=%d states_md5=%s edges_md5=%s violations=[%s]"
    s.states s.transitions s.states_digest s.edges_digest vio

(* ---- one path ---- *)

(* A replayed decision: the branch to take and, when carried from the
   ancestor path that first took it, the fingerprint digest of the state a
   scheduler decision was taken in ([None] at a delay decision, and
   throughout a user trail, which carries no digests).  Digests are raw MD5
   bytes, as in the visited and edge sets; only summaries and messages
   render them in hex. *)
type step = { chosen : int; digest : string option }

(* A decision recorded along one path: the step taken out of [arity]
   branches.  Scheduler choices and delay choices share one sequence —
   execution is a pure function of the flattened [chosen] string.  [event]
   counts the events the path had begun to fire when the decision was taken
   (a scheduler decision picks event [event]; a delay decision is drawn
   inside event [event - 1], or before any event when [event = 0]), and
   [por] the pools it had fired without branching by then. *)
type decision = { step : step; arity : int; event : int; por : int }

type path = {
  trail : decision array;  (* in order *)
  keys : int array;  (* the heap key of every event the path fired, in order *)
  ending : [ `Terminal | `Violation of string | `Depth | `Pruned | `States ];
}

type shared = {
  visited : (string, unit) Hashtbl.t;
  edges : (string * string, unit) Hashtbl.t;
  fp : Buffer.t;  (* scratch: every fingerprint of this search is written here *)
  mutable decisions_buf : decision array;  (* scratch: the trail of the running path *)
  mutable keys_buf : int array;  (* scratch: the keys of the running path *)
  mutable n_paths : int;
  mutable n_decisions : int;
  mutable n_por : int;
  mutable n_deepest : int;
  mutable n_trunc_depth : int;
  mutable trunc_states : bool;
}

let no_decision = { step = { chosen = 0; digest = None }; arity = 0; event = 0; por = 0 }

let fresh_shared () =
  {
    visited = Hashtbl.create 4096;
    edges = Hashtbl.create 4096;
    fp = Buffer.create 4096;
    decisions_buf = Array.make 64 no_decision;
    keys_buf = Array.make 128 0;
    n_paths = 0;
    n_decisions = 0;
    n_por = 0;
    n_deepest = 0;
    n_trunc_depth = 0;
    trunc_states = false;
  }

exception Stop_path of [ `Violation of string | `Depth | `Pruned | `States ]

(* One agent's op list, replayed through a sequencer; [left] counts the ops
   not yet completed. *)
type driver = { seq : Sequencer.t; mutable left : int }

let grown a n fill =
  if n < Array.length a then a
  else begin
    let a' = Array.make (max (n + 1) (2 * Array.length a)) fill in
    Array.blit a 0 a' 0 (Array.length a);
    a'
  end

(* Execute one path: replay [prefix] choices, then take branch 0 at every new
   decision, recording arities, scheduler-decision digests and the key of
   every fired event for the caller to backtrack over.  [sh] is consulted
   for pruning only beyond the prefix.

   A prefix carrying digests was cut from an ancestor path, which fired and
   checked the identical events: until its last decision is consumed, the
   invariants are skipped and the carried digests stand in for
   fingerprints.  One fingerprint, at the deepest carried scheduler
   decision, is recomputed as a tripwire against a replay that diverges;
   every replayed decision must also be of the carried kind (scheduler or
   delay), so a diverging replay cannot slip past that decision.

   [carried], the path [prefix] was cut from by {!siblings}, also lets the
   replay skip the choice pools: up to the event that consumes the
   prefix's last decision, each event is fired by the key [carried]
   recorded for it, with no pool read, no POR scan and no [visit_state]
   (the search's sets already hold those digests), and [carried]'s trail
   entries are reused.  Delay decisions drawn inside those events still go
   through [decide], which checks their kind against the prefix and their
   event and arity against the record; the tripwire is still recomputed;
   and {!Engine.fire_choice} still rejects a stale or non-minimal key,
   which is reported as a divergence.  The decisions and POR collapses the
   skipped pools stand for are credited, so the traversal counts do not
   depend on the mode.  Without [carried] (a user trail, a probe) every
   event goes through its pool. *)
let run_path ?extra_invariant ?(collect = fun (_ : Sys.t) -> ()) ?carried plan
    ~(prefix : step array) ~(sh : shared) () =
  let sys = Sys.build plan.config in
  sys.Sys.check_enable ();
  let n_prefix = Array.length prefix in
  let carried =
    match carried with
    | Some c when n_prefix > 0 ->
        if n_prefix > Array.length c.trail then
          invalid_arg "Checker.run_path: prefix longer than the path it was cut from";
        Some c
    | _ -> None
  in
  let tripwire =
    let rec deepest i = if i < 0 || prefix.(i).digest <> None then i else deepest (i - 1) in
    deepest (n_prefix - 1)
  in
  let n_trail = ref 0 and fired = ref 0 and por = ref 0 in
  let replaying () = tripwire >= 0 && !n_trail < n_prefix in
  let diverged what =
    invalid_arg (Printf.sprintf "Checker: replay diverged at decision %d (%s)" !n_trail what)
  in
  let record d =
    sh.decisions_buf <- grown sh.decisions_buf !n_trail no_decision;
    sh.decisions_buf.(!n_trail) <- d;
    incr n_trail
  in
  let decide ?digest arity =
    if arity < 1 then invalid_arg "Checker: empty decision";
    if !n_trail >= plan.max_depth then raise (Stop_path `Depth);
    let i = !n_trail in
    if replaying () && Option.is_some digest <> Option.is_some prefix.(i).digest then
      diverged "decision kind differs from the carried one";
    let chosen = if i < n_prefix then prefix.(i).chosen else 0 in
    if chosen < 0 || chosen >= arity then
      invalid_arg
        (Printf.sprintf "Checker: stale prefix (chose %d of %d at decision %d)" chosen
           arity i);
    (match carried with
    | Some c when i < n_prefix ->
        let d = c.trail.(i) in
        if d.event <> !fired || d.arity <> arity then
          diverged "decision drawn in another event or over another arity than carried";
        record (if i < n_prefix - 1 then d else { d with step = { chosen; digest } })
    | _ -> record { step = { chosen; digest }; arity; event = !fired; por = !por });
    sh.n_decisions <- sh.n_decisions + 1;
    chosen
  in
  sys.Sys.check_set_delay_chooser (fun ~lo ~hi ->
      if hi <= lo then lo else lo + decide (hi - lo + 1));
  (* Driver: one sequencer per referenced port, each replaying its op list. *)
  let drivers =
    Array.of_list
      (List.map
         (fun (agent, accesses) ->
           let port, ctrl =
             match agent with
             | Cpu i -> (sys.Sys.cpu_ports.(i), sys.Sys.check_cpu_ctrls.(i))
             | Accel i -> (sys.Sys.accel_ports.(i), sys.Sys.check_accel_ctrls.(i))
           in
           let seq =
             Sequencer.create ~engine:sys.Sys.engine ~name:("chk." ^ agent_label agent)
               ~port ~max_outstanding:1 ()
           in
           if ctrl >= 0 then Sequencer.set_check_ctrl seq ctrl;
           let d = { seq; left = List.length accesses } in
           let rec issue = function
             | [] -> ()
             | access :: rest ->
                 Sequencer.request seq access ~on_complete:(fun _value ~latency:_ ->
                     d.left <- d.left - 1;
                     issue rest)
           in
           issue accesses;
           d)
         plan.ops)
  in
  (* The system, then every driver's queue and its count of ops left: the
     count tells apart two points of a plan that touches one block twice
     with the same queue. *)
  let digest () =
    let fp = sh.fp in
    Buffer.clear fp;
    sys.Sys.check_fingerprint fp;
    for i = 0 to Array.length drivers - 1 do
      let d = drivers.(i) in
      Sequencer.check_fingerprint d.seq fp;
      Fp.field_int fp d.left
    done;
    Digest.string (Buffer.contents fp)
  in
  (* The tripwire: recompute the fingerprint of carried decision [i]. *)
  let verify i =
    let d = digest () in
    (match prefix.(i).digest with
    | Some c when c <> d ->
        diverged
          (Printf.sprintf "carried state %s, replayed %s" (Digest.to_hex c) (Digest.to_hex d))
    | _ -> ());
    d
  in
  (* The digest of the scheduler decision about to be taken. *)
  let decision_digest () =
    let i = !n_trail in
    match if i < n_prefix then prefix.(i).digest else None with
    | Some carried when i < tripwire -> carried
    | _ when i = tripwire -> verify i
    | _ -> digest ()
  in
  let check_invariants () =
    if not (replaying ()) then begin
      (match sys.Sys.check_invariant () with
      | Some msg -> raise (Stop_path (`Violation msg))
      | None -> ());
      match extra_invariant with
      | Some f -> (
          match f sys with Some msg -> raise (Stop_path (`Violation msg)) | None -> ())
      | None -> ()
    end
  in
  let engine = sys.Sys.engine in
  let fire key =
    sh.keys_buf <- grown sh.keys_buf !fired 0;
    sh.keys_buf.(!fired) <- key;
    incr fired;
    Engine.fire_choice engine ~key
  in
  (* Digest of the previous decision point on this path; [None] before the
     first one (the root is only counted once it is itself a decision point
     or terminal, so an immediate branch does not self-prune). *)
  let cur = ref None in
  let visit_state d =
    (match !cur with Some c -> Hashtbl.replace sh.edges (c, d) () | None -> ());
    (if Hashtbl.mem sh.visited d then
       (* Within the prefix a revisit is just the replay passing through its
          own footsteps; beyond it, an equal fingerprint means an identical
          future — prune. *)
       (if !n_trail >= n_prefix then raise (Stop_path `Pruned))
     else begin
       if Hashtbl.length sh.visited >= plan.max_states then begin
         sh.trunc_states <- true;
         raise (Stop_path `States)
       end;
       Hashtbl.replace sh.visited d ()
     end);
    cur := Some d
  in
  (* Fire the events [c] recorded before the prefix's last decision, each
     by its key, stepping over the scheduler decisions that picked them. *)
  let replay_keys c =
    let last = n_prefix - 1 in
    (* Every pool before the last decision was already read. *)
    por := c.trail.(last).por;
    sh.n_por <- sh.n_por + !por;
    for k = 0 to c.trail.(last).event - 1 do
      let i = !n_trail in
      if i < last && c.trail.(i).event = k && c.trail.(i).step.digest <> None then begin
        if i = tripwire then ignore (verify i);
        cur := c.trail.(i).step.digest;
        record c.trail.(i);
        sh.n_decisions <- sh.n_decisions + 1
      end;
      (match fire c.keys.(k) with
      | () -> ()
      | exception Invalid_argument m when String.starts_with ~prefix:"Engine.fire_choice" m ->
          diverged m);
      check_invariants ()
    done;
    (* A last delay decision is drawn inside the last keyed event, which may
       draw new ones after it; a last scheduler decision is taken below. *)
    if (if c.trail.(last).step.digest = None then !n_trail < n_prefix else !n_trail <> last)
    then diverged "a carried decision was not drawn"
  in
  let ending =
    try
      check_invariants ();
      Option.iter replay_keys carried;
      let rec loop () =
        (* The pool is read once per fired event: fingerprinting,
           [visit_state] and [decide] below touch no engine state, so its
           keys stay valid until [fire_choice]. *)
        let n = Engine.choices engine in
        if n = 0 then begin
          (* Drained terminal. *)
          if replaying () then diverged "drained inside the carried prefix";
          let remaining = Array.fold_left (fun n d -> n + d.left) 0 drivers in
          if remaining > 0 then
            raise
              (Stop_path
                 (`Violation
                   (Printf.sprintf "deadlock: drained with %d accesses incomplete"
                      remaining)));
          (match sys.Sys.check_quiescent_invariant () with
          | Some msg -> raise (Stop_path (`Violation msg))
          | None -> ());
          visit_state (digest ());
          `Terminal
        end
        else begin
          (* POR: a candidate whose tag conflicts with no other candidate
             commutes with every one of them; fire it without branching. *)
          let independent =
            if (not plan.por) || n = 1 then -1
            else begin
              let found = ref (-1) in
              let i = ref 0 in
              while !found < 0 && !i < n do
                let tag_i = Engine.choice_tag engine !i in
                if tag_i <> Engine.no_tag then begin
                  let ok = ref true in
                  for j = 0 to n - 1 do
                    if j <> !i && Engine.tags_conflict tag_i (Engine.choice_tag engine j) then
                      ok := false
                  done;
                  if !ok then found := !i
                end;
                incr i
              done;
              !found
            end
          in
          let idx =
            if independent >= 0 then begin
              sh.n_por <- sh.n_por + 1;
              incr por;
              independent
            end
            else if n = 1 then 0
            else begin
              let digest = decision_digest () in
              visit_state digest;
              decide ~digest n
            end
          in
          fire (Engine.choice_key engine idx);
          check_invariants ();
          loop ()
        end
      in
      loop ()
    with Stop_path e -> (e :> [ `Terminal | `Violation of string | `Depth | `Pruned | `States ])
  in
  (* Even a pruned path may have fired transitions its parent never did
     (between the branch point and the prune), so coverage is harvested from
     every path. *)
  collect sys;
  sh.n_paths <- sh.n_paths + 1;
  if !n_trail > sh.n_deepest then sh.n_deepest <- !n_trail;
  if ending = `Depth then sh.n_trunc_depth <- sh.n_trunc_depth + 1;
  {
    trail = Array.sub sh.decisions_buf 0 !n_trail;
    keys = Array.sub sh.keys_buf 0 !fired;
    ending;
  }

(* ---- DFS driver ---- *)

(* [f] over the untaken branches of every decision [p] took at position
   [from] or beyond, as prefixes, last to first in the order the search
   pops them (shallowest position first, then ascending branch).  Each
   carries the digests its ancestors recorded. *)
let fold_siblings (p : path) ~from f acc =
  let acc = ref acc in
  for i = Array.length p.trail - 1 downto from do
    let d = p.trail.(i) in
    for c = d.arity - 1 downto d.step.chosen + 1 do
      acc :=
        f
          (Array.init (i + 1) (fun j ->
               if j = i then { d.step with chosen = c } else p.trail.(j).step))
          !acc
    done
  done;
  !acc

(* The same prefixes as a list, in the order the search pops them. *)
let siblings p ~from = fold_siblings p ~from List.cons []

let summarize sh violations =
  let sorted tbl render =
    Hashtbl.fold (fun k () acc -> render k :: acc) tbl []
    |> List.sort String.compare |> String.concat "\n"
  in
  {
    states = Hashtbl.length sh.visited;
    transitions = Hashtbl.length sh.edges;
    states_digest = Digest.to_hex (Digest.string (sorted sh.visited Digest.to_hex));
    edges_digest =
      Digest.to_hex
        (Digest.string
           (sorted sh.edges (fun (a, b) -> Digest.to_hex a ^ ">" ^ Digest.to_hex b)));
    violations;
  }

let diagnostics_of sh =
  {
    paths = sh.n_paths;
    decisions = sh.n_decisions;
    por_collapsed = sh.n_por;
    deepest = sh.n_deepest;
    truncated_depth = sh.n_trunc_depth;
    truncated_states = sh.trunc_states;
  }

(* Explore every branch of every decision, depth-first from the root, until
   the first violation (its trail is the counterexample) or the state
   budget. *)
let explore ?extra_invariant ?collect plan =
  validate plan;
  let sh = fresh_shared () in
  let rec dfs = function
    | [] -> []
    | (prefix, carried) :: rest -> (
        let p = run_path ?extra_invariant ?collect ?carried plan ~prefix ~sh () in
        match p.ending with
        | `Violation message ->
            [ { trail = Array.to_list (Array.map (fun d -> d.step.chosen) p.trail); message } ]
        | `States -> []
        | `Depth | `Terminal | `Pruned ->
            (* Positions inside the popped prefix were enumerated when its
               ancestors ran.  Each sibling carries [p]'s record. *)
            let via = Some p in
            dfs (fold_siblings p ~from:(Array.length prefix) (fun s acc -> (s, via) :: acc) rest))
  in
  let violations = dfs [ ([||], None) ] in
  { summary = summarize sh violations; diagnostics = diagnostics_of sh }

(* ---- counterexample replay ---- *)

(* Re-execute one trail with the trace buffer armed and return the recorded
   events plus whatever the trail ends in.  A user trail carries no digests,
   so every event is checked.  Used by [xguard check --replay] and the
   broken-invariant regression test; [Invalid_argument] if the trail does
   not fit the plan (a choice out of range at some decision). *)
let replay ?extra_invariant ?(trace_capacity = 4096) plan (trail : int list) =
  validate plan;
  let buf = Trace.create ~capacity:trace_capacity () in
  let sh = fresh_shared () in
  let prefix = Array.of_list (List.map (fun chosen -> { chosen; digest = None }) trail) in
  let outcome =
    Xguard_obs.Obs.with_trace buf (fun () ->
        let p = run_path ?extra_invariant plan ~prefix ~sh () in
        match p.ending with
        | `Violation m -> `Violation m
        | `Terminal -> `Terminal
        | `Depth | `Pruned | `States -> `Incomplete)
  in
  (outcome, Trace.to_list buf)

(* ---- canned tiny configurations ---- *)

(* The exhaustively-checkable corner of the configuration space: one CPU, one
   accelerator core, direct-mapped-ish caches over 2-3 blocks, every latency
   pinned to its minimum, a jitter-free host network (the scheduler-choice
   layer still explores every same-cycle interleaving).  [jitter] re-opens
   link-delay nondeterminism (host_net 1..2) for a deliberately wider tree. *)
let tiny_config ?(jitter = false) ~host ~variant () =
  {
    Config.default with
    Config.host;
    org = Config.Xg_one_level variant;
    num_cpus = 1;
    num_accel_cores = 1;
    seed = 1;
    cpu_sets = 1;
    cpu_ways = 2;
    accel_sets = 1;
    accel_ways = 1;
    accel_l2_sets = 1;
    accel_l2_ways = 2;
    host_l2_sets = 1;
    host_l2_ways = 2;
    host_net_min = 1;
    host_net_max = (if jitter then 2 else 1);
    link_latency = 1;
    link_ordered = true;
    mem_latency = 1;
    dir_occupancy = 0;
    xg_timeout = 400;
  }

(* Two blocks, crossing access patterns: the CPU and the accelerator both
   touch both blocks, with stores on each side so ownership migrates across
   the guard in both directions. *)
let tiny_ops () =
  let a0 = Addr.block 0 and a1 = Addr.block 1 in
  [
    (Cpu 0, [ Access.store a0 (Data.token 1); Access.load a1 ]);
    (Accel 0, [ Access.store a1 (Data.token 2); Access.load a0 ]);
  ]

let tiny_plan ?(jitter = false) ~host ~variant () =
  {
    config = tiny_config ~jitter ~host ~variant ();
    ops = tiny_ops ();
    max_depth = 2000;
    max_states = 500_000;
    por = true;
  }

(* The named sweep [xguard check] and tools/check_model.sh iterate; the
   baseline file pins one line per entry.  Jittered trees are an order of
   magnitude bigger, so they come last — a wall-clock budget cuts from the
   tail. *)
let tiny_plans () =
  [
    ("hammer/full", tiny_plan ~host:Config.Hammer ~variant:Config.Full_state ());
    ("mesi/full", tiny_plan ~host:Config.Mesi ~variant:Config.Full_state ());
    ("hammer/trans", tiny_plan ~host:Config.Hammer ~variant:Config.Transactional ());
    ("mesi/trans", tiny_plan ~host:Config.Mesi ~variant:Config.Transactional ());
    ("mesi/full+jitter",
     tiny_plan ~jitter:true ~host:Config.Mesi ~variant:Config.Full_state ());
    ("hammer/full+jitter",
     tiny_plan ~jitter:true ~host:Config.Hammer ~variant:Config.Full_state ());
  ]

(* ---- coverage accumulation ---- *)

(* Every ["STATE.Event"] pair hit anywhere in the explored choice tree, per
   coverage space — the checker's reachable-set output, which the coverage
   floors cite when distinguishing "provably unreachable under this config"
   from "the random suite just never got there". *)
let covered_pairs ?extra_invariant plan =
  let acc : (string, (string, unit) Hashtbl.t) Hashtbl.t = Hashtbl.create 8 in
  let collect (sys : Sys.t) =
    List.iter
      (fun (name, (_ : Coverage.space), groups) ->
        let set =
          match Hashtbl.find_opt acc name with
          | Some s -> s
          | None ->
              let s = Hashtbl.create 64 in
              Hashtbl.add acc name s;
              s
        in
        List.iter
          (fun g ->
            List.iter
              (fun (k, n) -> if n > 0 then Hashtbl.replace set k ())
              (Xguard_stats.Counter.Group.to_list g))
          groups)
      (sys.Sys.coverage_sets ())
  in
  let r = explore ?extra_invariant ~collect plan in
  let pairs =
    Hashtbl.fold
      (fun name set acc ->
        (name, Hashtbl.fold (fun k () l -> k :: l) set [] |> List.sort String.compare)
        :: acc)
      acc []
    |> List.sort compare
  in
  (r, pairs)
