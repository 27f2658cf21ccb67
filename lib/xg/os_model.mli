(** Operating-system error model (paper §2.2).

    Crossing Guard reports every guarantee violation here.  The OS applies a
    policy: log only, disable the accelerator (Crossing Guard then drops all
    further accelerator requests while continuing to answer the host on its
    behalf), or additionally mark the offending process killed.  The
    per-kind error counts are the observable the safety experiments check. *)

type error_kind =
  | Perm_read_violation  (** G0a: request to a page with no access *)
  | Perm_write_violation  (** G0b: write request / data response without write permission *)
  | Bad_request_stable  (** G1a: request inconsistent with the block's stable state *)
  | Request_while_pending  (** G1b: second request while one is open for the address *)
  | Bad_response_type  (** G2a: response type inconsistent with the block's state *)
  | Unsolicited_response  (** G2b: response with no outstanding host request *)
  | Response_timeout  (** G2c: the accelerator never answered; XG answered for it *)
  | Rate_limit_exceeded  (** §2.5: request rate above the configured limit *)
  | Link_fault  (** the XG-accelerator link lost a retransmission round *)
  | Budget_exceeded  (** a per-phase hang budget tripped before the G2c timeout *)

type policy = Log_only | Disable_accelerator | Kill_process

val kind_index : error_kind -> int
(** The kind's position in {!all_error_kinds}: a constant-time index for
    per-kind tables. *)

val log_bound : int
(** How many reports {!log} keeps. *)

type t

val create : ?policy:policy -> unit -> t
val policy : t -> policy
val report : t -> error_kind -> Addr.t -> unit
val error_count : t -> int
val count_of : t -> error_kind -> int
val log : t -> (error_kind * Addr.t) list
(** The first {!log_bound} reports, oldest first.  {!error_count} and
    {!count_of} count every report. *)

val accel_disabled : t -> bool
val process_killed : t -> bool

val quarantine : t -> unit
(** The guard gave up on the accelerator's link: record the quarantine (the
    host keeps running; there is simply no device behind the guard any
    more).  Does {e not} set [accel_disabled]: the quarantining guard fences
    its own traffic, and one OS model may serve several guards in a
    topology, so a global disable would punish the victim's neighbors. *)

val quarantined : t -> bool

(** {2 Recovery lifecycle (PR 8)}

    A recovery-enabled guard walks the OS model through quarantine →
    {!rejoin} (probation) → {!promote}, or gives up with {!permakill}.  All
    counters stay zero and all flags false unless the guard drives them, so
    legacy runs are byte-identical. *)

val rejoin : t -> unit
(** The handshake completed: the device is back in service, on probation.
    Clears [quarantined]. *)

val promote : t -> unit
(** A clean probation window elapsed: the device is healthy again. *)

val permakill : t -> unit
(** The guard gave up on re-admission (too many quarantines, or the reset
    handshake died).  Terminal: the device stays quarantined. *)

val quarantine_count : t -> int
val in_probation : t -> bool
val permakilled : t -> bool

val anomaly : t -> string -> unit
(** Note a watchdog anomaly (rule name).  Pure observation: never feeds
    {!error_count}, the policy, or {!check_fingerprint} — the OS merely keeps
    a ledger the operator can read. *)

val anomalies : t -> (string * int) list
(** [(rule, count)] in first-noted order. *)

val error_kind_to_string : error_kind -> string
val all_error_kinds : error_kind list

val check_fingerprint : t -> Buffer.t -> unit
(** Append the behaviour-changing flags (disabled/killed/quarantined) to a
    canonical model-checker fingerprint; the error log is observational and
    excluded. *)
