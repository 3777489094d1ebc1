(** The AMuLeT* fuzzing loop (Section VII-B): relational testing of
    microarchitectures against hardware-software security contracts.

    For each random program and input pair: run the SEQ contract executor
    on both inputs and skip the pair unless the traces are equal; run the
    hardware configuration on both inputs recording attacker-visible
    events; report a violation when the adversary's views differ;
    classify it as a false positive when the committed instruction
    streams differ (sequential, not transient, divergence — the automated
    post-processing filter of Section VII-B1e).

    Long campaigns additionally get a robustness layer: a per-program
    exception barrier with retry-once-then-skip ({!cell}),
    watchdog-enforced per-simulation cycle budgets, counterexample
    shrinking, and a fault-injection self-test ([self_test]) that
    verifies the campaign would actually flag a broken defense.  Cells
    are JSON, so every campaign, at every width, checkpoints and
    resumes through the supervisor's one checkpoint format
    ([Protean_harness.Supervisor.Campaign]). *)

open Protean_isa
open Protean_arch
open Protean_ooo

type adversary =
  | Cache_tlb  (** AMuLeT's default: data-cache and TLB tag changes *)
  | Timing
      (** AMuLeT*'s addition: per-stage cycles of committed instructions,
          squash timing and divider activity — what an SMT receiver sees *)

val adversary_name : adversary -> string

type instrumentation = I_none | I_pass of Protean_protcc.Protcc.pass

type campaign = {
  seed : int;
  programs : int;
  inputs_per_program : int;
  gen_klass : Gen.klass_gen;
  mode_of : Observer.typing -> Observer.mode;
      (** contract observer mode (may consume the ProtCC-CTS typing) *)
  instrumentation : instrumentation;
  adversary : adversary;
  config : Config.t;
  squash_bug : bool;
  spec_model : Policy.spec_model;
  timeout_cycles : int option;
      (** per-simulation watchdog budget: a hardware run exceeding it
          raises {!Pipeline.Sim_fault}, which {!run_resilient} turns into
          a reported per-program skip *)
  check_certs : bool;
      (** audit each instrumented program's protection certificates
          against the SEQ executor on the campaign's own input pairs —
          every campaign doubles as a translation-validation soundness
          audit of ProtCC *)
  cert_fault : Protean_defense.Fault_inject.cert_mode option;
      (** pass-mutation injection: compile results (binary and/or
          certificates) are mutated as by a broken pass; a campaign with
          [check_certs] must then report certificate violations *)
}

val default_campaign : campaign

type outcome = {
  mutable tests : int;  (** contract-equivalent pairs compared *)
  mutable skipped : int;  (** pairs filtered by contract-equivalence *)
  mutable violations : int;
  mutable false_positives : int;
  mutable example : (int * int) option;
      (** (program seed, input index) of the first violation *)
  mutable certs_checked : int;  (** certificates audited ([check_certs]) *)
  mutable cert_claims : int;  (** individual (pc, register) claims *)
  mutable cert_violations : int;
  mutable cert_example : string option;
      (** first certificate violation, rendered *)
}

val program_seed : campaign -> int -> int
(** Generator seed of the campaign's [index]-th program. *)

val run : campaign -> Protean_defense.Defense.t -> outcome
(** The plain campaign loop: no barrier, first simulator fault aborts. *)

(** {1 Per-program primitives}

    The campaign decomposed per program, for parallel drivers
    ([Protean_harness.Parallel]): programs are independent (per-program
    seeded RNG), so running [test_program] for each index and merging
    the sub-outcomes in index order reproduces [run] exactly. *)

val fresh_outcome : unit -> outcome

val merge_outcome : into:outcome -> outcome -> unit
(** Add [b]'s counters into [into]; keeps [into]'s violation example
    when it already has one (so index-order merging preserves the
    serial campaign's first example). *)

val generate_program : campaign -> int -> Program.t
(** The campaign's [index]-th random program (before instrumentation). *)

type witness
(** Everything needed to replay one violating input pair. *)

val test_program :
  ?witness:witness option ref ->
  ?cert_witness:Protean_protcc.Certify.violation option ref ->
  campaign ->
  Protean_defense.Defense.t ->
  index:int ->
  program:Program.t ->
  outcome
(** Run every input pair of program [index] into a fresh outcome; the
    caller merges it on success, so a mid-program fault never leaves
    half-counted pairs behind.  [witness] captures the first violation
    for {!shrink_witness}; [cert_witness] the first certificate
    violation, for drivers that escalate it to a structured
    {!Protean_protcc.Certify.Cert_violation} cell fault. *)

(** {1 Counterexample shrinking} *)

val pair_violates :
  campaign ->
  Protean_defense.Defense.t ->
  Program.t ->
  Observer.mode ->
  public:int64 * string ->
  secret_a:int64 * string ->
  secret_b:int64 * string ->
  bool
(** Replay one already-instrumented (program, input pair) and report
    whether it is a (true-positive) contract violation.  Simulator
    faults count as "no violation". *)

type shrunk = {
  sh_program : Program.t;  (** instrumented, shrunk *)
  sh_original_insns : int;
  sh_insns : int;  (** live (non-nop, pre-halt) instructions left *)
  sh_attempts : int;  (** candidate replays spent *)
  sh_verified : bool;  (** the shrunk program still violates *)
}

val shrink_witness :
  ?budget:int -> campaign -> Protean_defense.Defense.t -> witness -> shrunk
(** Shrink a captured {!witness} (nop-out live instructions while the
    violation persists); used by parallel drivers after the campaign. *)

(** {1 Leakage attribution} *)

val attribute_witness :
  campaign ->
  Protean_defense.Defense.t ->
  witness ->
  Protean_telemetry.Window.attribution option
(** Replay both halves of a captured violation with a full-mode
    speculation-window ledger ({!Protean_ooo.Spec_window}) attached and
    attribute the leak: the leaking transmitter pc, the access its
    tainted operand derived from, the trigger window (id, pc, nesting
    depth), and a heuristic gadget-family classification — "v1"
    (conditional trigger, bounds-check bypass), "v2" (indirect branch),
    "rsb" (return misprediction), "v4" (global transmitter divergence
    driven by a memory-order violation, no window divergence), or
    "unknown".  Replay faults degrade to [None]. *)

(** {1 Campaign cells}

    One program of a campaign is one cell: {!cell} runs it behind the
    campaign's only exception barrier and encodes the result as JSON,
    so the same payload is computed in process, shipped by shard and
    dial-in workers, and persisted in supervisor checkpoints;
    {!finish} merges any set of cells into a {!report}. *)

type skip = {
  sk_index : int;  (** program index in the campaign *)
  sk_seed : int;  (** its generator seed *)
  sk_reason : string;
}

type report = {
  r_outcome : outcome;
  r_completed : int;  (** programs fully tested (including resumed ones) *)
  r_skipped : skip list;  (** programs dropped after retry, oldest first *)
  r_counterexample : shrunk option;  (** shrunk first violation *)
  r_attribution : Protean_telemetry.Window.attribution option;
      (** {!attribute_witness} on the first violation *)
}

val cell_key : campaign -> Protean_defense.Defense.t -> int -> string
(** The cell key of program [index]: the index plus the campaign's
    identity (defense, contract, instrumentation, generator class,
    adversary, seed, inputs, squash bug, speculation model, timeout,
    core, certificate audit and pass fault), so a checkpointed cell is
    only ever resumed into the campaign that computed it. *)

val cell :
  ?cert_poison:bool ->
  ?program_of:(int -> Program.t option) ->
  campaign ->
  Protean_defense.Defense.t ->
  int ->
  Protean_telemetry.Json.t
(** Run program [index] with the per-program exception barrier: a
    program whose simulation faults (watchdog, invariant failure, any
    exception) is retried once, then recorded as a skip with its
    reason.  [cert_poison] (shard workers) raises
    {!Protean_protcc.Certify.Cert_violation} on a refuted certificate
    instead, so the supervisor poisons only this cell.  [program_of]
    overrides the generated program at selected indices (harness
    self-tests). *)

val skipped_cell : campaign -> string -> Protean_telemetry.Json.t
(** The payload of a program that produced no result (a poisoned
    supervisor cell): a skip with [reason]. *)

val finish :
  ?shrink:bool ->
  ?shrink_budget:int ->
  ?program_of:(int -> Program.t option) ->
  campaign ->
  Protean_defense.Defense.t ->
  (int * Protean_telemetry.Json.t) list ->
  report
(** Merge (index, cell) pairs in index order.  The first violating
    index is replayed with witness capture, then shrunk ([shrink],
    default true, within [shrink_budget] replays) and attributed. *)

val run_resilient :
  ?shrink:bool ->
  ?shrink_budget:int ->
  ?program_of:(int -> Program.t option) ->
  campaign ->
  Protean_defense.Defense.t ->
  report
(** The serial campaign: {!cell} for every program, then {!finish}. *)

(** {1 Fuzzer self-test via fault injection} *)

type gap = {
  g_mode : Protean_defense.Fault_inject.mode;
  g_tests : int;
  g_violations : int;
  g_detected : bool;  (** the campaign flagged the injected fault *)
}

val self_test :
  ?modes:Protean_defense.Fault_inject.mode list ->
  campaign ->
  Protean_defense.Defense.t ->
  gap list
(** Inject each fault mode into the defense and rerun the campaign; a
    mode whose campaign reports no violation is a detector gap. *)

val gaps : gap list -> gap list
(** The undetected subset of a {!self_test} result. *)

val campaign_for :
  ?seed:int -> programs:int -> inputs:int -> string -> campaign
(** Campaign skeleton for a named contract ("arch", "cts", "ct",
    "unprot"): observer mode, generator class and ProtCC instrumentation
    set consistently.  Raises [Invalid_argument] on unknown names. *)

val canonical_pairings :
  (Protean_defense.Fault_inject.mode * string * string) list
(** For each fault mode, a (defense id, contract) pairing in which the
    faulted layer is load-bearing, so the fault is observable.  Layered
    defenses mask single-layer faults (e.g. ProtTrack's taint layer
    compensates for dropped protection bits), so self-testing all modes
    against one defense reports spurious gaps. *)

val self_test_matrix :
  ?seed:int ->
  ?programs:int ->
  ?inputs:int ->
  ?timeout_cycles:int ->
  unit ->
  (string * string * gap) list
(** Run {!self_test} over {!canonical_pairings}; every returned gap
    should have [g_detected = true] for a healthy fuzzer.  Returns
    (defense id, contract, gap) per mode. *)

(** Contract shorthands (observer-mode constructors). *)

val arch_seq : Observer.typing -> Observer.mode
val ct_seq : Observer.typing -> Observer.mode
val cts_seq : Observer.typing -> Observer.mode
val unprot_seq : Observer.typing -> Observer.mode
