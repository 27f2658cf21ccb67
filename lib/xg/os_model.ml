type error_kind =
  | Perm_read_violation
  | Perm_write_violation
  | Bad_request_stable
  | Request_while_pending
  | Bad_response_type
  | Unsolicited_response
  | Response_timeout
  | Rate_limit_exceeded
  | Link_fault
  | Budget_exceeded

type policy = Log_only | Disable_accelerator | Kill_process

let all_error_kinds =
  [
    Perm_read_violation;
    Perm_write_violation;
    Bad_request_stable;
    Request_while_pending;
    Bad_response_type;
    Unsolicited_response;
    Response_timeout;
    Rate_limit_exceeded;
    Link_fault;
    Budget_exceeded;
  ]

(* The kind's position in [all_error_kinds]. *)
let kind_index = function
  | Perm_read_violation -> 0
  | Perm_write_violation -> 1
  | Bad_request_stable -> 2
  | Request_while_pending -> 3
  | Bad_response_type -> 4
  | Unsolicited_response -> 5
  | Response_timeout -> 6
  | Rate_limit_exceeded -> 7
  | Link_fault -> 8
  | Budget_exceeded -> 9

let log_bound = 16

type t = {
  policy : policy;
  (* The first [log_bound] reports, newest first.  A hostile accelerator can
     cause a report per message, so the log stops growing there; [count] and
     [counts] keep counting. *)
  mutable log : (error_kind * Addr.t) list;
  mutable count : int;
  counts : int array;  (* by [kind_index] *)
  mutable disabled : bool;
  mutable killed : bool;
  mutable quarantined : bool;
  (* Recovery lifecycle bookkeeping (PR 8).  All zero / false unless a guard
     with recovery enabled drives the transitions, so legacy runs are
     untouched. *)
  mutable quarantines : int;
  mutable probation : bool;
  mutable permakilled : bool;
  (* Watchdog anomaly notes (PR 10): pure observations from the metrics
     layer's anomaly watchdog.  Strictly advisory — they never feed [count],
     the policy, or the model-checker fingerprint. *)
  mutable anomaly_log : (string * int) list;  (* (rule, count), first-noted order, reversed *)
}

let create ?(policy = Log_only) () =
  {
    policy;
    log = [];
    count = 0;
    counts = Array.make (List.length all_error_kinds) 0;
    disabled = false;
    killed = false;
    quarantined = false;
    quarantines = 0;
    probation = false;
    permakilled = false;
    anomaly_log = [];
  }

let policy t = t.policy

let report t kind addr =
  if t.count < log_bound then t.log <- (kind, addr) :: t.log;
  t.count <- t.count + 1;
  let i = kind_index kind in
  t.counts.(i) <- t.counts.(i) + 1;
  match t.policy with
  | Log_only -> ()
  | Disable_accelerator -> t.disabled <- true
  | Kill_process ->
      t.disabled <- true;
      t.killed <- true

let error_count t = t.count
let count_of t kind = t.counts.(kind_index kind)
let log t = List.rev t.log
let accel_disabled t = t.disabled
let process_killed t = t.killed

let quarantine t =
  (* Record the quarantine but leave [disabled] alone: the quarantining
     guard already drops its accelerator's traffic itself, and the OS model
     may be shared by several guards in a topology — flipping the global
     disable here would take innocent neighbors offline with the victim. *)
  t.quarantined <- true;
  t.quarantines <- t.quarantines + 1;
  t.probation <- false

let quarantined t = t.quarantined

(* ---- recovery lifecycle (PR 8) ---- *)

let rejoin t =
  (* The guard re-admitted the device: the OS sees it back in service, but
     on probation until a clean window elapses. *)
  t.quarantined <- false;
  t.probation <- true

let promote t = t.probation <- false

let permakill t =
  (* Terminal: the guard gave up on re-admission.  The device stays
     quarantined for the rest of the run. *)
  t.quarantined <- true;
  t.probation <- false;
  t.permakilled <- true

let quarantine_count t = t.quarantines
let in_probation t = t.probation
let permakilled t = t.permakilled

(* ---- watchdog anomaly notes (PR 10, pure observer) ---- *)

let anomaly t rule =
  let rec bump = function
    | [] -> [ (rule, 1) ]
    | (r, n) :: rest -> if r = rule then (r, n + 1) :: rest else (r, n) :: bump rest
  in
  t.anomaly_log <- bump t.anomaly_log

let anomalies t = t.anomaly_log

let check_fingerprint t buf =
  (* Only the flags that change guard behaviour; the log and counters are
     observational. *)
  Buffer.add_string buf "os[";
  if t.disabled then Buffer.add_char buf 'd';
  if t.killed then Buffer.add_char buf 'k';
  if t.quarantined then Buffer.add_char buf 'q';
  (* Recovery flags appear only when a recovery-enabled guard has driven
     them, so legacy fingerprints (MODEL_BASELINE.json) are unchanged. *)
  if t.probation then Buffer.add_char buf 'p';
  if t.permakilled then Buffer.add_char buf 'x';
  Buffer.add_char buf ']'

let error_kind_to_string = function
  | Perm_read_violation -> "perm_read_violation (G0a)"
  | Perm_write_violation -> "perm_write_violation (G0b)"
  | Bad_request_stable -> "bad_request_stable (G1a)"
  | Request_while_pending -> "request_while_pending (G1b)"
  | Bad_response_type -> "bad_response_type (G2a)"
  | Unsolicited_response -> "unsolicited_response (G2b)"
  | Response_timeout -> "response_timeout (G2c)"
  | Rate_limit_exceeded -> "rate_limit_exceeded"
  | Link_fault -> "link_fault (lossy link)"
  | Budget_exceeded -> "budget_exceeded (hang budget)"
