(* Robustness layer tests: microarchitectural invariant checking,
   watchdog deadlock/livelock detection, fuzzer self-testing via fault
   injection, counterexample shrinking and campaign checkpoint/resume
   through the supervisor's checkpoint format. *)

open Protean_isa
module Config = Protean_ooo.Config
module Pipeline = Protean_ooo.Pipeline
module Policy = Protean_ooo.Policy
module Invariants = Protean_ooo.Invariants
module Defense = Protean_defense.Defense
module Fault_inject = Protean_defense.Fault_inject
module Fuzz = Protean_amulet.Fuzz
module Supervisor = Protean_harness.Supervisor
module Shard = Protean_harness.Shard
module Json = Protean_telemetry.Json
module Tlog = Protean_telemetry.Log

let r = Asm.r
let i = Asm.i

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go k = k + n <= m && (String.sub s k n = sub || go (k + 1)) in
  go 0

(* --- invariants ------------------------------------------------------ *)

(* Every seed workload, under both an unprotected and a fully protected
   policy, must run to completion with the invariant checker in Fail
   mode on every cycle. *)
let test_invariants_on_workloads () =
  let checker = Invariants.checker ~every:1 Invariants.Fail in
  List.iter
    (fun (dname, (d : Defense.t)) ->
      List.iter
        (fun (name, program) ->
          let result =
            Pipeline.run ~fuel:2_000_000 ~on_cycle:checker Config.test_core
              (d.Defense.make ()) program ~overlays:[]
          in
          Alcotest.(check bool)
            (Printf.sprintf "%s under %s finished with invariants on" name
               dname)
            true result.Pipeline.finished)
        Helpers.all_programs)
    [ ("unsafe", Defense.unsafe); ("prot-track", Defense.prot_track) ]

(* A just-created pipeline satisfies every invariant. *)
let test_invariants_initial () =
  let program = Helpers.sum_loop 5 in
  let t =
    Pipeline.create Config.test_core Policy.unsafe program ~overlays:[]
  in
  Alcotest.(check int) "no violations at reset" 0 (List.length (Invariants.check t))

let test_mode_of_string () =
  Alcotest.(check bool) "off" true (Invariants.mode_of_string "off" = Invariants.Off);
  Alcotest.(check bool) "warn" true (Invariants.mode_of_string "warn" = Invariants.Warn);
  Alcotest.(check bool) "fail" true (Invariants.mode_of_string "fail" = Invariants.Fail);
  Alcotest.(check bool) "junk rejected" true
    (match Invariants.mode_of_string "junk" with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* --- watchdog -------------------------------------------------------- *)

(* A policy that never lets a transmitter (load) execute livelocks any
   program containing a load: the ROB head never completes, commit
   starves, and the heartbeat must convert that into a structured
   Commit_stall fault carrying the pipeline state. *)
let test_watchdog_commit_stall () =
  let stuck =
    { Policy.unsafe with Policy.may_execute_transmitter = (fun _ _ -> false) }
  in
  let c = Asm.create () in
  Asm.func c ~klass:Program.Arch "main";
  Asm.mov c Reg.rdi (i 0x2000);
  Asm.store c (Asm.mb Reg.rdi) (i 42);
  Asm.load c Reg.rax (Asm.mb Reg.rdi);
  Asm.halt c;
  let program = Asm.finish c in
  let watchdog = { Pipeline.heartbeat = 200; budget = None } in
  match
    Pipeline.run ~watchdog Config.test_core stuck program ~overlays:[]
  with
  | _ -> Alcotest.fail "livelocked program finished"
  | exception Pipeline.Sim_fault f ->
      Alcotest.(check string)
        "fault kind" "commit-stall"
        (Pipeline.fault_kind_name f.Pipeline.fault_kind);
      Alcotest.(check bool)
        "fault cycle past heartbeat" true
        (f.Pipeline.fault_cycle > 200);
      (* The dump names the stuck instruction at the ROB head. *)
      Alcotest.(check bool)
        "head pc recorded" true
        (f.Pipeline.fault_head_pc >= 0)

(* An architecturally infinite loop keeps committing, so the heartbeat
   never fires — only the hard cycle budget catches it. *)
let test_watchdog_budget () =
  let c = Asm.create () in
  Asm.func c ~klass:Program.Arch "main";
  Asm.label c "self";
  Asm.add c Reg.rax (i 1);
  Asm.jmp c "self";
  let program = Asm.finish c in
  let watchdog = { Pipeline.default_watchdog with Pipeline.budget = Some 2_000 } in
  match
    Pipeline.run ~watchdog Config.test_core Policy.unsafe program ~overlays:[]
  with
  | _ -> Alcotest.fail "infinite loop finished"
  | exception Pipeline.Sim_fault f ->
      Alcotest.(check string)
        "fault kind" "cycle-budget-exhausted"
        (Pipeline.fault_kind_name f.Pipeline.fault_kind)

(* --- fuzzer self-test: injected faults must be caught ---------------- *)

let test_fault_injection_matrix () =
  let rows = Fuzz.self_test_matrix ~seed:1 ~programs:3 ~inputs:5 () in
  Alcotest.(check int)
    "one row per fault mode"
    (List.length Fault_inject.all_modes)
    (List.length rows);
  List.iter
    (fun (defense_id, contract, (g : Fuzz.gap)) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s injected into %s caught by %s-SEQ fuzzing"
           (Fault_inject.mode_name g.Fuzz.g_mode)
           defense_id contract)
        true g.Fuzz.g_detected)
    rows

(* --- counterexample shrinking ---------------------------------------- *)

(* The unprotected core violates CT-SEQ; the shrunk counterexample must
   still violate and be no larger than the original. *)
let test_shrinking_preserves_violation () =
  let campaign = Fuzz.campaign_for ~seed:1 ~programs:4 ~inputs:3 "ct" in
  let r = Fuzz.run_resilient campaign Defense.unsafe in
  Alcotest.(check bool) "unsafe violates CT-SEQ" true
    (r.Fuzz.r_outcome.Fuzz.violations > 0);
  match r.Fuzz.r_counterexample with
  | None -> Alcotest.fail "no counterexample produced"
  | Some sh ->
      Alcotest.(check bool) "shrunk program still violates" true
        sh.Fuzz.sh_verified;
      Alcotest.(check bool) "shrinking did not grow the program" true
        (sh.Fuzz.sh_insns <= sh.Fuzz.sh_original_insns);
      Alcotest.(check bool) "some replays were spent" true
        (sh.Fuzz.sh_attempts > 0)

(* --- campaign-level deadlock survival -------------------------------- *)

(* An architecturally terminating program whose hardware run exceeds the
   per-program cycle budget: thousands of data-dependent divisions. *)
let slow_program () =
  let c = Asm.create () in
  Asm.func c ~klass:Program.Arch "main";
  Asm.mov c Reg.rax (i 1_000_000);
  Asm.mov c Reg.rbx (i 1);
  for _ = 1 to 4_000 do
    Asm.div c Reg.rax Reg.rax (r Reg.rbx)
  done;
  Asm.halt c;
  Asm.finish c

(* Acceptance scenario: a campaign containing a program that blows the
   watchdog budget completes the remaining programs and reports the
   skip. *)
let test_campaign_survives_timeout () =
  let campaign =
    {
      (Fuzz.campaign_for ~seed:3 ~programs:3 ~inputs:2 "arch") with
      Fuzz.timeout_cycles = Some 20_000;
    }
  in
  let slow = slow_program () in
  let program_of idx = if idx = 1 then Some slow else None in
  let r = Fuzz.run_resilient ~program_of campaign Defense.unsafe in
  Alcotest.(check int) "other programs completed" 2 r.Fuzz.r_completed;
  (match r.Fuzz.r_skipped with
  | [ s ] ->
      Alcotest.(check int) "skipped program index" 1 s.Fuzz.sk_index;
      Alcotest.(check int) "skipped program seed"
        (Fuzz.program_seed campaign 1) s.Fuzz.sk_seed;
      Alcotest.(check bool)
        (Printf.sprintf "skip reason names the watchdog: %s" s.Fuzz.sk_reason)
        true
        (contains ~sub:"budget-exhausted" s.Fuzz.sk_reason)
  | l ->
      Alcotest.fail
        (Printf.sprintf "expected exactly one skip, got %d" (List.length l)));
  Alcotest.(check bool) "remaining programs were tested" true
    (r.Fuzz.r_outcome.Fuzz.tests > 0)

(* --- checkpointing --------------------------------------------------- *)

(* Every campaign checkpoints through the supervisor's one format:
   per-shard JSON files of (id, key, cell) entries, where a cell is
   [Fuzz.cell]'s payload and the key carries the campaign's identity. *)

let fresh_dir =
  let n = ref 0 in
  fun () ->
    incr n;
    let dir =
      Filename.concat (Filename.get_temp_dir_name ())
        (Printf.sprintf "protean_ck_test.%d.%d" (Unix.getpid ()) !n)
    in
    Unix.mkdir dir 0o700;
    dir

let rec remove_tree path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
    end
    else Sys.remove path

let with_dir f =
  let dir = fresh_dir () in
  Fun.protect ~finally:(fun () -> remove_tree dir) (fun () -> f dir)

(* Warnings logged while [f] runs. *)
let capturing_warnings f =
  let lines = ref [] in
  Tlog.set_sink (fun l -> lines := l :: !lines);
  let r = Fun.protect ~finally:Tlog.reset_sink f in
  (r, List.rev !lines)

let campaign_cells campaign d = Supervisor.Campaign.cells campaign d

(* Three cells of a certified ProtCC-CT campaign: with certificate
   counters, a violation example from [unsafe], and a skip. *)
let ck_campaign =
  { (Fuzz.campaign_for ~seed:42 ~programs:3 ~inputs:2 "ct") with
    Fuzz.check_certs = true }

let ck_entries () =
  List.map
    (fun (c : Shard.cell) ->
      let j =
        if c.Shard.c_id = 2 then Fuzz.skipped_cell ck_campaign "worker lost"
        else Fuzz.cell ck_campaign Defense.unsafe c.Shard.c_id
      in
      (c.Shard.c_id, c.Shard.c_key, j))
    (campaign_cells ck_campaign Defense.unsafe)

let test_checkpoint_json_roundtrip () =
  let entries = ck_entries () in
  List.iter
    (fun (_, _, j) ->
      Alcotest.(check bool) "cell JSON round-trips" true
        (Json.of_string (Json.to_string j) = j))
    entries;
  let via_json =
    List.map (fun (id, _, j) -> (id, Json.of_string (Json.to_string j))) entries
  in
  let direct = List.map (fun (id, _, j) -> (id, j)) entries in
  let report cells =
    Fuzz.finish ~shrink:false ck_campaign Defense.unsafe cells
  in
  let a = report direct and b = report via_json in
  Alcotest.(check bool) "same outcome" true (a.Fuzz.r_outcome = b.Fuzz.r_outcome);
  Alcotest.(check bool) "certificate counters carried" true
    (a.Fuzz.r_outcome.Fuzz.certs_checked = 2);
  Alcotest.(check bool) "violation example carried" true
    (a.Fuzz.r_outcome.Fuzz.example <> None);
  Alcotest.(check bool) "skip carried" true
    (List.map (fun s -> (s.Fuzz.sk_index, s.Fuzz.sk_reason)) b.Fuzz.r_skipped
    = [ (2, "worker lost") ])

let test_checkpoint_file_roundtrip () =
  with_dir (fun dir ->
      let entries = ck_entries () in
      Supervisor.Checkpoint.save dir 0 entries;
      let cells = campaign_cells ck_campaign Defense.unsafe in
      Alcotest.(check bool) "file round-trip equal" true
        (Supervisor.Checkpoint.load_all dir cells = entries);
      Alcotest.(check bool) "missing dir loads nothing" true
        (Supervisor.Checkpoint.load_all (Filename.concat dir "absent") cells
        = []))

let test_checkpoint_malformed () =
  with_dir (fun dir ->
      let file = Supervisor.Checkpoint.path dir 0 in
      let oc = open_out file in
      output_string oc "{not json";
      close_out oc;
      let loaded, _ =
        capturing_warnings (fun () ->
            Supervisor.Checkpoint.load_all dir
              (campaign_cells ck_campaign Defense.unsafe))
      in
      Alcotest.(check bool) "garbage rejected" true (loaded = []))

(* A checkpoint file truncated mid-write (a non-atomic copy, disk-full,
   ...) must be detected and ignored with a warning naming it — never
   raise, never resume from half a record. *)
let test_checkpoint_truncated_warns () =
  with_dir (fun dir ->
      let entries = ck_entries () in
      let cells = campaign_cells ck_campaign Defense.unsafe in
      Supervisor.Checkpoint.save dir 0 entries;
      let file = Supervisor.Checkpoint.path dir 0 in
      let full = In_channel.with_open_bin file In_channel.input_all in
      Out_channel.with_open_bin file (fun oc ->
          output_string oc (String.sub full 0 (String.length full / 2)));
      let loaded, warned =
        capturing_warnings (fun () -> Supervisor.Checkpoint.load_all dir cells)
      in
      Alcotest.(check bool) "truncated checkpoint ignored" true (loaded = []);
      Alcotest.(check int) "warning fired once" 1 (List.length warned);
      Alcotest.(check bool) "warning names the file" true
        (List.for_all (contains ~sub:file) warned);
      (* An intact file must load silently through the same path. *)
      Supervisor.Checkpoint.save dir 0 entries;
      let loaded, warned =
        capturing_warnings (fun () -> Supervisor.Checkpoint.load_all dir cells)
      in
      Alcotest.(check bool) "intact checkpoint loads" true (loaded = entries);
      Alcotest.(check (list string)) "no warning for intact file" [] warned)

(* Checkpoint saves are atomic: a save over an existing checkpoint goes
   through a tmp file + rename, so a reader never observes a mix of old
   and new bytes and no .tmp residue survives a completed save. *)
let test_checkpoint_save_atomic () =
  with_dir (fun dir ->
      let entries = ck_entries () in
      Supervisor.Checkpoint.save dir 0 entries;
      Supervisor.Checkpoint.save dir 0 [ List.hd entries ];
      Alcotest.(check bool) "tmp file removed by rename" false
        (Sys.file_exists (Supervisor.Checkpoint.path dir 0 ^ ".tmp"));
      Alcotest.(check bool) "second save wins" true
        (Supervisor.Checkpoint.load_all dir
           (campaign_cells ck_campaign Defense.unsafe)
        = [ List.hd entries ]))

(* Run [campaign] through the one runner; returns the report and the
   number of cells resumed from [dir]. *)
let supervised_run ?program_of ?(shards = 2) dir campaign d =
  let bus = Supervisor.create_bus () in
  let resumed = ref 0 in
  Supervisor.subscribe bus ~name:"resumed" (function
    | Supervisor.Checkpoint_loaded { cells } -> resumed := cells
    | _ -> ());
  let cfg =
    {
      Supervisor.default_config with
      Supervisor.shards;
      checkpoint_dir = Some dir;
    }
  in
  let r = Supervisor.Campaign.run ~bus ?program_of ~shrink:false cfg campaign d in
  (r, !resumed)

(* A checkpoint holding every cell of the campaign makes the runner
   return the saved results without computing anything: a recomputed
   program would fault on the [program_of] tripwire and show as a
   skip. *)
let test_checkpoint_resume () =
  let campaign = Fuzz.campaign_for ~seed:9 ~programs:3 ~inputs:2 "arch" in
  with_dir (fun dir ->
      let first, resumed0 = supervised_run dir campaign Defense.stt in
      let tripwire _ = failwith "resumed cell recomputed" in
      let again, resumed =
        supervised_run ~program_of:tripwire dir campaign Defense.stt
      in
      Alcotest.(check int) "fresh run resumed nothing" 0 resumed0;
      Alcotest.(check int) "every cell resumed" 3 resumed;
      Alcotest.(check bool) "saved counts restored" true
        (again.Fuzz.r_outcome = first.Fuzz.r_outcome
        && first.Fuzz.r_outcome.Fuzz.tests > 0);
      Alcotest.(check int) "no cell recomputed" 0
        (List.length again.Fuzz.r_skipped);
      Alcotest.(check int) "all programs counted done" 3 again.Fuzz.r_completed)

(* A checkpoint of a different campaign (another seed) is ignored. *)
let test_checkpoint_mismatch_ignored () =
  let campaign seed = Fuzz.campaign_for ~seed ~programs:2 ~inputs:2 "arch" in
  with_dir (fun dir ->
      ignore (supervised_run dir (campaign 11) Defense.stt);
      let _, resumed = supervised_run dir (campaign 10) Defense.stt in
      Alcotest.(check int) "not resumed" 0 resumed)

(* A checkpoint that cannot be written (here: its dir would sit under a
   regular file) is reported once, naming the file, and the campaign
   still completes. *)
let test_checkpoint_save_failure_warns () =
  let campaign = Fuzz.campaign_for ~seed:9 ~programs:3 ~inputs:2 "arch" in
  with_dir (fun dir ->
      let blocker = Filename.concat dir "file" in
      Out_channel.with_open_bin blocker ignore;
      let target = Filename.concat blocker "ck" in
      let (r, _), warned =
        capturing_warnings (fun () -> supervised_run ~shards:1 target campaign Defense.stt)
      in
      Alcotest.(check int) "campaign completed" 3 r.Fuzz.r_completed;
      Alcotest.(check int) "warned once" 1 (List.length warned);
      Alcotest.(check bool) "warning names the file" true
        (List.for_all (contains ~sub:(Supervisor.Checkpoint.path target 0)) warned))

(* Cell keys carry the whole campaign identity: a checkpoint written by
   an unsafe/CT campaign resumes nothing into a campaign that differs
   only in defense, contract or adversary — each reports exactly what
   a fresh run does (for prot-track: no violation). *)
let test_checkpoint_campaign_identity () =
  let ct = Fuzz.campaign_for ~seed:5 ~programs:4 ~inputs:3 "ct" in
  let others =
    [
      ("prot-track/CT", ct, Defense.prot_track);
      ( "unsafe/ARCH",
        Fuzz.campaign_for ~seed:5 ~programs:4 ~inputs:3 "arch",
        Defense.unsafe );
      ("unsafe/CT timing", { ct with Fuzz.adversary = Fuzz.Timing }, Defense.unsafe);
    ]
  in
  List.iter
    (fun (name, campaign, d) ->
      with_dir (fun dir ->
          let written, _ = supervised_run dir ct Defense.unsafe in
          Alcotest.(check bool) "the unsafe/CT checkpoint holds violations" true
            (written.Fuzz.r_outcome.Fuzz.violations > 0);
          let r, resumed = supervised_run dir campaign d in
          Alcotest.(check int) (name ^ ": no cell resumed") 0 resumed;
          let fresh = Fuzz.run_resilient ~shrink:false campaign d in
          Alcotest.(check bool) (name ^ ": same as a fresh run") true
            (r.Fuzz.r_outcome = fresh.Fuzz.r_outcome);
          if d == Defense.prot_track then
            Alcotest.(check int) (name ^ ": no violation") 0
              r.Fuzz.r_outcome.Fuzz.violations))
    others

(* An interrupted certified campaign, resumed from a checkpoint holding
   half its cells (one of them a faulted program), reports exactly what
   the uninterrupted campaign does: certificate counts and example,
   skips with their reasons, completed programs. *)
let test_checkpoint_resume_keeps_certs_and_skips () =
  let campaign =
    {
      (Fuzz.campaign_for ~seed:3 ~programs:4 ~inputs:2 "ct") with
      Fuzz.check_certs = true;
      timeout_cycles = Some 20_000;
    }
  in
  let slow = slow_program () in
  let program_of idx = if idx = 1 then Some slow else None in
  let d = Defense.prot_track in
  with_dir (fun full_dir ->
      with_dir (fun half_dir ->
          let full, _ = supervised_run ~program_of full_dir campaign d in
          let cells = campaign_cells campaign d in
          let saved = Supervisor.Checkpoint.load_all full_dir cells in
          Supervisor.Checkpoint.save half_dir 0
            (List.filter (fun (id, _, _) -> id < 2) saved);
          let resumed_r, resumed =
            supervised_run ~program_of half_dir campaign d
          in
          Alcotest.(check int) "half the cells resumed" 2 resumed;
          Alcotest.(check bool) "certificates were audited" true
            (full.Fuzz.r_outcome.Fuzz.certs_checked > 0);
          Alcotest.(check bool) "the faulted program is skipped" true
            (List.map (fun s -> s.Fuzz.sk_index) full.Fuzz.r_skipped = [ 1 ]);
          Alcotest.(check bool) "outcome and certificates equal" true
            (resumed_r.Fuzz.r_outcome = full.Fuzz.r_outcome);
          Alcotest.(check bool) "skips and reasons equal" true
            (resumed_r.Fuzz.r_skipped = full.Fuzz.r_skipped);
          Alcotest.(check int) "completed programs equal"
            full.Fuzz.r_completed resumed_r.Fuzz.r_completed))

let tests =
  [
    Alcotest.test_case "invariants hold on all seed workloads" `Slow
      test_invariants_on_workloads;
    Alcotest.test_case "invariants hold at reset" `Quick
      test_invariants_initial;
    Alcotest.test_case "invariant mode parsing" `Quick test_mode_of_string;
    Alcotest.test_case "watchdog converts livelock into Commit_stall" `Quick
      test_watchdog_commit_stall;
    Alcotest.test_case "watchdog budget catches infinite loop" `Quick
      test_watchdog_budget;
    Alcotest.test_case "every injected fault is detected" `Slow
      test_fault_injection_matrix;
    Alcotest.test_case "shrinking preserves the violation" `Slow
      test_shrinking_preserves_violation;
    Alcotest.test_case "checkpoint JSON round-trips" `Quick
      test_checkpoint_json_roundtrip;
    Alcotest.test_case "checkpoint file round-trips" `Quick
      test_checkpoint_file_roundtrip;
    Alcotest.test_case "malformed checkpoint rejected" `Quick
      test_checkpoint_malformed;
    Alcotest.test_case "truncated checkpoint warns and is ignored" `Quick
      test_checkpoint_truncated_warns;
    Alcotest.test_case "checkpoint saves are atomic" `Quick
      test_checkpoint_save_atomic;
    Alcotest.test_case "campaign resumes from checkpoint" `Quick
      test_checkpoint_resume;
    Alcotest.test_case "mismatched checkpoint ignored" `Quick
      test_checkpoint_mismatch_ignored;
    Alcotest.test_case "campaign survives a deadlocking program" `Slow
      test_campaign_survives_timeout;
    Alcotest.test_case "unsaveable checkpoint warns once" `Quick
      test_checkpoint_save_failure_warns;
    Alcotest.test_case "checkpoint of another campaign resumes nothing" `Slow
      test_checkpoint_campaign_identity;
    Alcotest.test_case "resumed campaign keeps certificates and skips" `Slow
      test_checkpoint_resume_keeps_certs_and_skips;
  ]
