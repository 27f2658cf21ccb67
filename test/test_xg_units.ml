(* Unit tests for the Crossing Guard's building blocks: the permission table,
   the OS error model, the rate limiter, block-size translation and the
   guard's storage accounting. *)

module Engine = Xguard_sim.Engine
module Rng = Xguard_sim.Rng
module Xg = Xguard_xg

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ---- Perm_table ---- *)

let test_perm_defaults_and_pages () =
  let t = Xg.Perm_table.create () in
  check_bool "default RW" true (Xg.Perm_table.allows_write t (Addr.block 5));
  Xg.Perm_table.set_block t (Addr.block 5) Perm.Read_only;
  check_bool "RO read" true (Xg.Perm_table.allows_read t (Addr.block 5));
  check_bool "RO !write" false (Xg.Perm_table.allows_write t (Addr.block 5));
  (* The whole page is affected. *)
  check_bool "same page" false (Xg.Perm_table.allows_write t (Addr.block 6));
  check_bool "other page untouched" true (Xg.Perm_table.allows_write t (Addr.block 100))

let test_perm_restrictive_default () =
  let t = Xg.Perm_table.create ~default:Perm.No_access () in
  check_bool "no read by default" false (Xg.Perm_table.allows_read t (Addr.block 0));
  Xg.Perm_table.set_page t ~page:0 Perm.Read_write;
  check_bool "page opened" true (Xg.Perm_table.allows_write t (Addr.block 0))

(* [perm] caches the last page it looked up; every mutation must be seen by
   the very next read, whichever accessor makes it. *)
let test_perm_cache_sees_every_mutation () =
  let t = Xg.Perm_table.create () in
  let b = Addr.block 5 in
  let perm = Alcotest.testable Perm.pp Perm.equal in
  let seen what expected =
    Alcotest.check perm (what ^ ": perm") expected (Xg.Perm_table.perm t b);
    check_bool (what ^ ": read") (Perm.allows_read expected) (Xg.Perm_table.allows_read t b);
    check_bool (what ^ ": write") (Perm.allows_write expected) (Xg.Perm_table.allows_write t b)
  in
  seen "default" Perm.Read_write;
  Xg.Perm_table.set_page t ~page:(Addr.page_of b) Perm.Read_only;
  seen "set_page" Perm.Read_only;
  let snap = Xg.Perm_table.snapshot t in
  Xg.Perm_table.set_block t (Addr.block 6) Perm.Read_write;
  seen "set_block (same page)" Perm.Read_write;
  Xg.Perm_table.revoke_all t;
  seen "revoke_all" Perm.No_access;
  Xg.Perm_table.restore t snap;
  seen "restore" Perm.Read_only;
  (* A read of another page in between must not leave a stale entry. *)
  check_bool "other page" true (Xg.Perm_table.allows_write t (Addr.block 100));
  Xg.Perm_table.set_page t ~page:(Addr.page_of (Addr.block 100)) Perm.No_access;
  check_bool "other page revoked" false (Xg.Perm_table.allows_read t (Addr.block 100));
  seen "first page again" Perm.Read_only

(* ---- Os_model ---- *)

let test_os_logging_and_counts () =
  let os = Xg.Os_model.create () in
  Xg.Os_model.report os Xg.Os_model.Response_timeout (Addr.block 1);
  Xg.Os_model.report os Xg.Os_model.Response_timeout (Addr.block 2);
  Xg.Os_model.report os Xg.Os_model.Bad_request_stable (Addr.block 3);
  check_int "total" 3 (Xg.Os_model.error_count os);
  check_int "per kind" 2 (Xg.Os_model.count_of os Xg.Os_model.Response_timeout);
  check_int "log order" 1
    (match Xg.Os_model.log os with (_, a) :: _ -> Addr.to_int a | [] -> -1);
  check_bool "log-only never disables" false (Xg.Os_model.accel_disabled os)

let test_os_kind_index () =
  List.iteri
    (fun i k ->
      check_int (Xg.Os_model.error_kind_to_string k) i (Xg.Os_model.kind_index k))
    Xg.Os_model.all_error_kinds

let test_os_counts_every_kind () =
  let os = Xg.Os_model.create () in
  List.iteri
    (fun i k ->
      for _ = 0 to i do
        Xg.Os_model.report os k (Addr.block i)
      done)
    Xg.Os_model.all_error_kinds;
  List.iteri
    (fun i k -> check_int (Xg.Os_model.error_kind_to_string k) (i + 1) (Xg.Os_model.count_of os k))
    Xg.Os_model.all_error_kinds;
  let n = List.length Xg.Os_model.all_error_kinds in
  check_int "total" (n * (n + 1) / 2) (Xg.Os_model.error_count os)

(* The log keeps the first [log_bound] reports, oldest first; the counts go
   on past it. *)
let test_os_log_bound () =
  let os = Xg.Os_model.create () in
  let reports = (3 * Xg.Os_model.log_bound) + 1 in
  for i = 0 to reports - 1 do
    let kind =
      if i mod 2 = 0 then Xg.Os_model.Unsolicited_response else Xg.Os_model.Perm_read_violation
    in
    Xg.Os_model.report os kind (Addr.block i)
  done;
  check_int "error_count" reports (Xg.Os_model.error_count os);
  check_int "G2b count" ((reports + 1) / 2)
    (Xg.Os_model.count_of os Xg.Os_model.Unsolicited_response);
  check_int "G0a count" (reports / 2) (Xg.Os_model.count_of os Xg.Os_model.Perm_read_violation);
  Alcotest.(check (list int))
    "kept log, oldest first"
    (List.init Xg.Os_model.log_bound Fun.id)
    (List.map (fun (_, a) -> Addr.to_int a) (Xg.Os_model.log os));
  check_bool "kinds kept with their addresses" true
    (List.for_all
       (fun (k, a) ->
         k
         = if Addr.to_int a mod 2 = 0 then Xg.Os_model.Unsolicited_response
           else Xg.Os_model.Perm_read_violation)
       (Xg.Os_model.log os))

let test_os_policies () =
  let os = Xg.Os_model.create ~policy:Xg.Os_model.Disable_accelerator () in
  check_bool "enabled before" false (Xg.Os_model.accel_disabled os);
  Xg.Os_model.report os Xg.Os_model.Perm_read_violation (Addr.block 0);
  check_bool "disabled after" true (Xg.Os_model.accel_disabled os);
  check_bool "not killed" false (Xg.Os_model.process_killed os);
  let os = Xg.Os_model.create ~policy:Xg.Os_model.Kill_process () in
  Xg.Os_model.report os Xg.Os_model.Perm_read_violation (Addr.block 0);
  check_bool "killed" true (Xg.Os_model.process_killed os)

(* ---- Rate_limiter ---- *)

let test_rate_limiter_burst_then_throttle () =
  let e = Engine.create () in
  let rl = Xg.Rate_limiter.create ~engine:e ~tokens_per_cycle:0.1 ~burst:3 () in
  let fired = ref [] in
  for i = 1 to 6 do
    Xg.Rate_limiter.admit rl (fun () -> fired := (i, Engine.now e) :: !fired)
  done;
  ignore (Engine.run e);
  let fired = List.rev !fired in
  check_int "all admitted eventually" 6 (List.length fired);
  Alcotest.(check (list int)) "FIFO order" [ 1; 2; 3; 4; 5; 6 ] (List.map fst fired);
  (* First three ride the burst at t=0; the rest wait ~10 cycles each. *)
  let times = List.map snd fired in
  check_bool "burst immediate" true (List.nth times 2 = 0);
  check_bool "throttled afterwards" true (List.nth times 3 >= 10);
  check_bool "spaced by the rate" true (List.nth times 5 >= List.nth times 4 + 9);
  check_int "delayed count" 3 (Xg.Rate_limiter.delayed rl)

let test_rate_limiter_refill () =
  let e = Engine.create () in
  let rl = Xg.Rate_limiter.create ~engine:e ~tokens_per_cycle:0.5 ~burst:2 () in
  let count = ref 0 in
  (* Drain the burst, then wait long enough to refill fully. *)
  Xg.Rate_limiter.admit rl (fun () -> incr count);
  Xg.Rate_limiter.admit rl (fun () -> incr count);
  Engine.schedule e ~delay:100 (fun () ->
      Xg.Rate_limiter.admit rl (fun () -> check_int "after refill: immediate" 100 (Engine.now e)));
  ignore (Engine.run e);
  check_int "burst ran" 2 !count

let test_rate_limiter_rejects_empty_bucket () =
  (* Zero (or negative) rate or burst can never yield a token; both must be
     rejected at creation instead of livelocking the drain loop. *)
  let e = Engine.create () in
  let expect_invalid label f =
    try
      ignore (f ());
      Alcotest.failf "%s: expected Invalid_argument" label
    with Invalid_argument _ -> ()
  in
  expect_invalid "zero rate" (fun () ->
      Xg.Rate_limiter.create ~engine:e ~tokens_per_cycle:0.0 ~burst:4 ());
  expect_invalid "negative rate" (fun () ->
      Xg.Rate_limiter.create ~engine:e ~tokens_per_cycle:(-1.0) ~burst:4 ());
  expect_invalid "zero burst" (fun () ->
      Xg.Rate_limiter.create ~engine:e ~tokens_per_cycle:0.5 ~burst:0 ());
  expect_invalid "negative burst" (fun () ->
      Xg.Rate_limiter.create ~engine:e ~tokens_per_cycle:0.5 ~burst:(-2) ())

let test_rate_limiter_window_boundary () =
  (* Drain the burst at t=0; with 0.25 tokens/cycle the next whole token
     exists exactly at t=4.  A request queued at t=3 must run at t=4, not
     t=3 (no early token) and not later (no lost fraction). *)
  let e = Engine.create () in
  let rl = Xg.Rate_limiter.create ~engine:e ~tokens_per_cycle:0.25 ~burst:2 () in
  Xg.Rate_limiter.admit rl (fun () -> ());
  Xg.Rate_limiter.admit rl (fun () -> ());
  let ran_at = ref (-1) in
  Engine.schedule e ~delay:3 (fun () ->
      Xg.Rate_limiter.admit rl (fun () -> ran_at := Engine.now e));
  ignore (Engine.run e);
  check_int "token lands exactly on the window boundary" 4 !ran_at

let test_rate_limiter_refill_never_overflows_burst () =
  (* After an arbitrarily long idle stretch the bucket holds exactly [burst]
     tokens — elapsed x rate must saturate, not accumulate credit. *)
  let e = Engine.create () in
  let rl = Xg.Rate_limiter.create ~engine:e ~tokens_per_cycle:0.5 ~burst:2 () in
  let times = ref [] in
  Engine.schedule e ~delay:1_000_000 (fun () ->
      for _ = 1 to 3 do
        Xg.Rate_limiter.admit rl (fun () -> times := Engine.now e :: !times)
      done);
  ignore (Engine.run e);
  match List.rev !times with
  | [ t1; t2; t3 ] ->
      check_int "first rides the bucket" 1_000_000 t1;
      check_int "second rides the bucket" 1_000_000 t2;
      check_bool "third waits for a fresh token" true (t3 >= 1_000_001)
  | l -> Alcotest.failf "expected 3 admissions, got %d" (List.length l)

(* ---- Xg_iface.Link reset (PR 8) ---- *)

let test_link_reset_rewinds_sequences () =
  (* Run framed traffic both ways, then reset: every channel's tx/rx sequence
     numbers rewind to zero and the retransmission window empties, so the
     post-reset exchange starts a fresh go-back-N conversation. *)
  let module Xg_iface = Xg.Xg_iface in
  let e = Engine.create () in
  let rng = Rng.create ~seed:7 in
  let link =
    Xg_iface.Link.create ~engine:e ~rng ~name:"l"
      ~ordering:(Xguard_network.Network.Ordered { latency = 2 })
      ()
  in
  Xg_iface.Link.enable_reliability link ~retry_timeout:16 ~max_retries:2 ();
  let registry = Node.Registry.create () in
  let a = Node.Registry.fresh registry "a" and b = Node.Registry.fresh registry "b" in
  let got = ref 0 in
  Xg_iface.Link.register link a (fun ~src:_ _ -> incr got);
  Xg_iface.Link.register link b (fun ~src:_ _ -> incr got);
  let msg = Xg_iface.To_xg_req { addr = Addr.block 1; req = Xg_iface.Get_s } in
  for _ = 1 to 5 do
    Xg_iface.Link.send link ~src:a ~dst:b ~size:(Xg_iface.msg_size msg) msg;
    Xg_iface.Link.send link ~src:b ~dst:a ~size:(Xg_iface.msg_size msg) msg
  done;
  ignore (Engine.run e);
  check_int "traffic delivered" 10 !got;
  let tx, rx, outstanding = Xg_iface.Link.channel_state link ~src:a ~dst:b in
  check_int "a->b advanced tx" 5 tx;
  check_int "a->b advanced rx" 5 rx;
  check_int "window drained by acks" 0 outstanding;
  (* Kill the wire with a frame stuck in the window, then reset.  (Running
     the engine here would never quiesce: nothing in this bare test kills a
     permanently dark link, so retransmission would retry forever.) *)
  Xg_iface.Link.cut_wire link;
  Xg_iface.Link.send link ~src:a ~dst:b ~size:(Xg_iface.msg_size msg) msg;
  let tx_stuck, _, stuck = Xg_iface.Link.channel_state link ~src:a ~dst:b in
  check_bool "frame stuck in the window" true (stuck >= 1);
  check_int "tx advanced past the stuck frame" 6 tx_stuck;
  let ready = ref false in
  Xg_iface.Link.reset link ~src:b ~dst:a ~timeout:16 ~attempts:3
    ~on_ready:(fun () -> ready := true)
    ~on_dead:(fun () -> Alcotest.fail "reset handshake must succeed on a spliced wire")
    ();
  ignore (Engine.run e);
  check_bool "handshake completed" true !ready;
  let tx, rx, outstanding = Xg_iface.Link.channel_state link ~src:a ~dst:b in
  check_int "tx rewound" 0 tx;
  check_int "rx rewound" 0 rx;
  check_int "window emptied" 0 outstanding;
  (* Fresh conversation works from sequence zero. *)
  let before = !got in
  Xg_iface.Link.send link ~src:a ~dst:b ~size:(Xg_iface.msg_size msg) msg;
  ignore (Engine.run e);
  check_int "post-reset delivery" (before + 1) !got

let test_link_reset_flush_handler_runs_once_per_generation () =
  (* Retransmitted Reset frames of one generation must flush exactly once;
     a second reset generation flushes again. *)
  let module Xg_iface = Xg.Xg_iface in
  let e = Engine.create () in
  let rng = Rng.create ~seed:11 in
  let link =
    Xg_iface.Link.create ~engine:e ~rng ~name:"l"
      ~ordering:(Xguard_network.Network.Ordered { latency = 2 })
      ()
  in
  Xg_iface.Link.enable_reliability link ~retry_timeout:8 ~max_retries:2 ();
  let registry = Node.Registry.create () in
  let a = Node.Registry.fresh registry "a" and b = Node.Registry.fresh registry "b" in
  Xg_iface.Link.register link a (fun ~src:_ _ -> ());
  Xg_iface.Link.register link b (fun ~src:_ _ -> ());
  (* Fault-script needles match against the tracer's rendering. *)
  Xg_iface.Link.set_tracer link (fun _ -> (-1, "payload"));
  let flushes = ref 0 in
  Xg_iface.Link.set_reset_handler link (fun () -> incr flushes);
  (* Drop the first Reset_ack so the initiator retries the same generation:
     the responder sees Reset #1 twice but must flush only once. *)
  (match Xguard_network.Network.Fault.script_of_string "drop:1:LinkResetAck" with
  | Ok s -> Xg_iface.Link.add_fault_script link s
  | Error e -> Alcotest.fail e);
  let ready = ref 0 in
  Xg_iface.Link.reset link ~src:b ~dst:a ~timeout:8 ~attempts:4
    ~on_ready:(fun () -> incr ready)
    ~on_dead:(fun () -> Alcotest.fail "handshake must survive one lost ack")
    ();
  ignore (Engine.run e);
  check_int "handshake completed once" 1 !ready;
  check_int "one flush for the retried generation" 1 !flushes;
  Xg_iface.Link.reset link ~src:b ~dst:a ~timeout:8 ~attempts:4
    ~on_ready:(fun () -> incr ready)
    ~on_dead:(fun () -> Alcotest.fail "second handshake must succeed")
    ();
  ignore (Engine.run e);
  check_int "second generation flushes again" 2 !flushes

(* ---- Block_merge ---- *)

let make_backing engine memory log =
  {
    Xg.Block_merge.get =
      (fun addr ~excl ~on_grant ->
        log := `Get (Addr.to_int addr, excl) :: !log;
        Engine.schedule engine ~delay:5 (fun () -> on_grant (Memory_model.read memory addr)));
    Xg.Block_merge.put =
      (fun addr data ->
        log := `Put (Addr.to_int addr) :: !log;
        Memory_model.write memory addr data);
  }

let test_block_merge_get_merges_components () =
  let e = Engine.create () in
  let memory = Memory_model.create () in
  let log = ref [] in
  let bm = Xg.Block_merge.create ~engine:e ~ratio:4 ~backing:(make_backing e memory log) () in
  let got = ref None in
  Xg.Block_merge.get bm ~line:3 ~excl:false ~on_grant:(fun g -> got := Some g);
  ignore (Engine.run e);
  (match !got with
  | Some (Xg.Block_merge.Merged_s parts) ->
      check_int "ratio parts" 4 (Array.length parts);
      Array.iteri
        (fun i d -> check_int "component data" (Data.initial (Addr.block (12 + i))) d)
        parts
  | _ -> Alcotest.fail "expected a shared merged grant");
  check_int "4 host gets" 4 (Xg.Block_merge.host_transactions bm);
  check_int "no open merges" 0 (Xg.Block_merge.open_merges bm)

let test_block_merge_put_splits () =
  let e = Engine.create () in
  let memory = Memory_model.create () in
  let log = ref [] in
  let bm = Xg.Block_merge.create ~engine:e ~ratio:2 ~backing:(make_backing e memory log) () in
  Xg.Block_merge.put bm ~line:5 [| Data.token 71; Data.token 72 |];
  check_int "component 0" 71 (Memory_model.read memory (Addr.block 10));
  check_int "component 1" 72 (Memory_model.read memory (Addr.block 11));
  (try
     Xg.Block_merge.put bm ~line:5 [| Data.token 1 |];
     Alcotest.fail "expected arity rejection"
   with Invalid_argument _ -> ())

let test_block_merge_line_mapping () =
  let e = Engine.create () in
  let memory = Memory_model.create () in
  let log = ref [] in
  let bm = Xg.Block_merge.create ~engine:e ~ratio:4 ~backing:(make_backing e memory log) () in
  check_int "block 0 -> line 0" 0 (Xg.Block_merge.line_of_host_block bm (Addr.block 0));
  check_int "block 7 -> line 1" 1 (Xg.Block_merge.line_of_host_block bm (Addr.block 7));
  try
    ignore (Xg.Block_merge.create ~engine:e ~ratio:3 ~backing:(make_backing e memory log) ());
    Alcotest.fail "expected power-of-two rejection"
  with Invalid_argument _ -> ()

let test_block_merge_exclusive_grant () =
  let e = Engine.create () in
  let memory = Memory_model.create () in
  let log = ref [] in
  let bm = Xg.Block_merge.create ~engine:e ~ratio:2 ~backing:(make_backing e memory log) () in
  let got = ref None in
  Xg.Block_merge.get bm ~line:0 ~excl:true ~on_grant:(fun g -> got := Some g);
  ignore (Engine.run e);
  match !got with
  | Some (Xg.Block_merge.Merged_e _) -> ()
  | _ -> Alcotest.fail "expected an exclusive merged grant"

(* ---- Xg_core storage accounting (E5 machinery) ---- *)

let test_storage_accounting_modes () =
  (* Full-state tracks every resident block; transactional only open
     transactions.  After quiescence, transactional storage returns to zero
     while full-state grows with residency. *)
  let module Config = Xguard_harness.Config in
  let module System = Xguard_harness.System in
  let measure variant =
    let cfg = Config.make Config.Hammer (Config.Xg_one_level variant) in
    let sys = System.build cfg in
    let core = sys.System.guards.(0).System.g_core in
    let port = sys.System.accel_ports.(0) in
    for i = 0 to 19 do
      ignore (port.Access.issue (Access.load (Addr.block i)) ~on_done:(fun _ -> ()));
      ignore (Engine.run sys.System.engine)
    done;
    (Xg.Xg_core.tracked_blocks core, Xg.Xg_core.storage_bits core, Xg.Xg_core.peak_storage_bits core)
  in
  let full_tracked, full_bits, full_peak = measure Config.Full_state in
  let trans_tracked, trans_bits, trans_peak = measure Config.Transactional in
  check_int "full-state tracks residency" 20 full_tracked;
  check_int "transactional tracks nothing at rest" 0 trans_tracked;
  check_int "transactional quiescent storage is zero" 0 trans_bits;
  check_bool "full-state standing storage" true (full_bits >= 20 * 36);
  check_bool "transactional peak covers open txns only" true (trans_peak < full_peak)

let tests =
  [
    ( "xg.perm_table",
      [
        Alcotest.test_case "defaults + pages" `Quick test_perm_defaults_and_pages;
        Alcotest.test_case "restrictive default" `Quick test_perm_restrictive_default;
        Alcotest.test_case "cache sees every mutation" `Quick
          test_perm_cache_sees_every_mutation;
      ] );
    ( "xg.os_model",
      [
        Alcotest.test_case "logging + counts" `Quick test_os_logging_and_counts;
        Alcotest.test_case "policies" `Quick test_os_policies;
        Alcotest.test_case "kind index" `Quick test_os_kind_index;
        Alcotest.test_case "counts every kind" `Quick test_os_counts_every_kind;
        Alcotest.test_case "log bound" `Quick test_os_log_bound;
      ] );
    ( "xg.rate_limiter",
      [
        Alcotest.test_case "burst then throttle" `Quick test_rate_limiter_burst_then_throttle;
        Alcotest.test_case "refill" `Quick test_rate_limiter_refill;
        Alcotest.test_case "empty bucket rejected" `Quick test_rate_limiter_rejects_empty_bucket;
        Alcotest.test_case "window boundary" `Quick test_rate_limiter_window_boundary;
        Alcotest.test_case "refill saturates at burst" `Quick
          test_rate_limiter_refill_never_overflows_burst;
      ] );
    ( "xg.link_reset",
      [
        Alcotest.test_case "sequences rewind" `Quick test_link_reset_rewinds_sequences;
        Alcotest.test_case "one flush per generation" `Quick
          test_link_reset_flush_handler_runs_once_per_generation;
      ] );
    ( "xg.block_merge",
      [
        Alcotest.test_case "get merges" `Quick test_block_merge_get_merges_components;
        Alcotest.test_case "put splits" `Quick test_block_merge_put_splits;
        Alcotest.test_case "line mapping" `Quick test_block_merge_line_mapping;
        Alcotest.test_case "exclusive grant" `Quick test_block_merge_exclusive_grant;
      ] );
    ( "xg.storage",
      [ Alcotest.test_case "full-state vs transactional" `Quick test_storage_accounting_modes ]
    );
  ]
