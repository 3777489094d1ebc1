(* Benchmark command: host cost of the simulator, compiler and fuzzer
   on three workloads (see work.ml and README.md).

     bench.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1]
     bench.exe --write-expected     # regenerate perfbench/expected/
     bench.exe --setup-only --workload NAME
     bench.exe --worker             # shard worker, spawned by tables-sharded

   Runs from the root of a source checkout.  Untraced (--trace 0) it
   repeats the workload's iteration for about --seconds and reports the
   end-to-end metrics; traced (--trace 1) it alternates untraced and
   traced iterations, adds the workload's replays, and reports the
   per-layer metrics.  The last line of standard output is one JSON
   object; everything the simulator and harness print goes to standard
   error.  Exits 1 when an output check fails. *)

module Json = Protean_harness.Shard.Json
module Report = Protean_harness.Report
module Defense = Protean_defense.Defense
module Profile = Protean_ooo.Profile
module Stats = Perfbench.Stats
module Metric = Perfbench.Metric
module Spans = Perfbench.Spans
module Sysinfo = Perfbench.Sysinfo
module Reference = Perfbench.Reference
module Checks = Perfbench.Checks
module Work = Perfbench.Work

let die code fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("perfbench: " ^ s);
      exit code)
    fmt

let now = Unix.gettimeofday

(* ------------------------------------------------------------------ *)
(* Command line                                                        *)
(* ------------------------------------------------------------------ *)

type mode = Run | Setup_only | Worker | Reference_helper | Write_expected

type opts = {
  mode : mode;
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
}

let parse argv =
  let int_arg flag v =
    match int_of_string_opt v with Some n -> n | None -> die 2 "%s wants an integer, got %S" flag v
  in
  let rec go o = function
    | [] -> o
    | "--workload" :: v :: rest -> go { o with workload = v } rest
    | "--seed" :: v :: rest -> go { o with seed = int_arg "--seed" v } rest
    | "--seconds" :: v :: rest ->
        let s = int_arg "--seconds" v in
        if s < 1 then die 2 "--seconds must be at least 1";
        go { o with seconds = float_of_int s } rest
    | "--trace" :: ("0" | "1" as v) :: rest -> go { o with trace = v = "1" } rest
    | "--setup-only" :: rest -> go { o with mode = Setup_only } rest
    | "--worker" :: rest -> go { o with mode = Worker } rest
    | "--reference" :: rest -> go { o with mode = Reference_helper } rest
    | "--write-expected" :: rest -> go { o with mode = Write_expected } rest
    | a :: _ -> die 2 "unexpected argument %S" a
  in
  go { mode = Run; workload = ""; seed = 1; seconds = 10.; trace = false }
    (List.tl (Array.to_list argv))

(* ------------------------------------------------------------------ *)
(* Set-up                                                              *)
(* ------------------------------------------------------------------ *)

(* The metric and workload names BENCHMARK.json declares; the run must
   emit exactly these. *)
type spec = { workloads : string list; end_to_end : string list; per_layer : string list }

let load_spec () =
  let j = Json.of_string (Work.read_file "BENCHMARK.json") in
  let names key =
    List.map (fun m -> Json.(to_str (member "name" m))) Json.(to_list (member key j))
  in
  { workloads = names "workloads"; end_to_end = names "end_to_end"; per_layer = names "per_layer" }

type expected =
  | Quick of Work.tables_expected
  | Sharded of Work.sharded_expected
  | Fuzz of Work.fuzz_expected

(* Everything a run does before its first timed iteration: runtime
   tuning, the suite registry, the committed expectations, and the
   workload's global switches (exporters, certificate checker). *)
let setup workload =
  Protean_ooo.Gc_tune.tune ();
  let spec =
    try load_spec ()
    with Sys_error e | Json.Parse e | Failure e -> die 2 "cannot read BENCHMARK.json: %s" e
  in
  if not (List.mem workload spec.workloads) then
    die 2 "unknown workload %S (one of: %s)" workload (String.concat ", " spec.workloads);
  List.iter (fun b -> ignore (Protean_workloads.Suite.find b)) Work.benches;
  let x =
    try
      match workload with
      | "tables-quick" -> Quick (Work.load_tables ())
      | "tables-sharded" ->
          Work.enable_exports ~worker:false;
          Sharded (Work.load_sharded ())
      | "fuzz-ct" ->
          Work.enable_certs ();
          Fuzz (Work.load_fuzz ())
      | w -> die 2 "workload %S has no implementation" w
    with Sys_error e -> die 2 "cannot load expectations: %s" e
  in
  (spec, x)

(* Median wall time of 25 fresh processes doing only the set-up, so
   runtime start-up counts and one slow spawn does not. *)
let setup_seconds workload =
  let once () =
    let t0 = now () in
    let pid =
      Unix.create_process Sys.executable_name
        [| Sys.executable_name; "--setup-only"; "--workload"; workload |]
        Unix.stdin Unix.stderr Unix.stderr
    in
    match Unix.waitpid [] pid with
    | _, Unix.WEXITED 0 -> now () -. t0
    | _ -> die 3 "set-up process failed"
  in
  Stats.median (List.init 25 (fun _ -> once ()))

(* ------------------------------------------------------------------ *)
(* Measurement                                                         *)
(* ------------------------------------------------------------------ *)

let iteration = function
  | Quick x -> fun () -> Work.tables_quick_iteration x
  | Sharded x -> fun () -> Work.tables_sharded_iteration x
  | Fuzz x -> fun () -> Work.fuzz_iteration x

let traced_iteration sp = function
  | Quick x -> fun () -> Work.tables_traced_iteration sp x
  | Sharded x -> fun () -> Work.tables_sharded_traced_iteration sp x
  | Fuzz x -> fun () -> Work.fuzz_traced_iteration sp x

(* Items one iteration completes: table cells, or fuzzed programs. *)
let items = function
  | Quick x -> List.length x.Work.cells
  | Sharded x -> List.length x.Work.tables.Work.cells
  | Fuzz _ -> Work.campaign.Protean_amulet.Fuzz.programs

let timed f =
  let t0 = now () in
  let v = f () in
  (now () -. t0, v)

(* Repeat [step] until the next one would end past [seconds] (at least
   once).  [step] returns its wall time and value; each sample also
   carries the mean of the reference times measured just before and
   just after it. *)
let repeat ~reference ~seconds step =
  let start = now () in
  let rec go before acc =
    let dt, v = step () in
    let after = Reference.run reference in
    let acc = (dt, (before +. after) /. 2., v) :: acc in
    let typical = Stats.median (List.map (fun (d, _, _) -> d) acc) in
    if now () -. start +. typical <= seconds then go after acc else List.rev acc
  in
  go (Reference.run reference) []

type tally = { mutable attempted : int; mutable failures : string list }

let count tally (o : Work.outcome) =
  tally.attempted <- tally.attempted + o.Work.attempted;
  tally.failures <- tally.failures @ o.Work.failures

(* Deterministic counts must repeat exactly between iterations. *)
let check_repeats tally what values =
  match values with
  | v :: rest when List.exists (fun v' -> v' <> v) rest ->
      tally.attempted <- tally.attempted + 1;
      tally.failures <- tally.failures @ [ what ^ " differs between iterations" ]
  | _ -> ()

let lookup key sums = Option.value ~default:0. (List.assoc_opt key sums)
let median_of key samples = Stats.median (List.map (lookup key) samples)

let failed tally = min tally.attempted (List.length tally.failures)

(* --trace 0: the end-to-end metrics. *)
let run_untraced ~reference o x =
  let tally = { attempted = 0; failures = [] } in
  let setup_s = setup_seconds o.workload in
  let runs = repeat ~reference ~seconds:o.seconds (fun () -> timed (iteration x)) in
  List.iter (fun (_, _, r) -> count tally r) runs;
  check_repeats tally "simulated cycle total" (List.map (fun (_, _, r) -> r.Work.sim_cycles) runs);
  let run_s = Stats.median (List.map (fun (d, r, _) -> d *. Reference.nominal_s /. r) runs) in
  let sim = float_of_int (match runs with (_, _, r) :: _ -> r.Work.sim_cycles | [] -> 0) in
  let metrics =
    [
      Metric.make "setup_s" "s" setup_s;
      Metric.make "run_s" "s" run_s;
      Metric.make "sim_cycles_per_s" "cycles/s" (sim /. run_s);
      Metric.make "items_per_s" "1/s" (float_of_int (items x) /. run_s);
      Metric.make "peak_rss_mb" "MiB" (Sysinfo.peak_rss_mib ());
      Metric.make "ok_share" "ratio"
        (1. -. (float_of_int (failed tally) /. float_of_int tally.attempted));
    ]
  in
  (List.map (fun (d, r, _) -> (d, r)) runs, tally, metrics)

let layers = [ "workloads"; "protcc"; "arch"; "ooo"; "defense"; "amulet"; "harness"; "telemetry" ]
let stages = [ "fetch"; "rename"; "issue_exec"; "resolve"; "commit" ]
let passes = [ "arch"; "cts"; "ct"; "unr"; "multi" ]

(* Every per-layer metric.  Per-iteration sums are medians over the
   traced iterations; replay sums (taken once per run) take precedence.
   A layer a workload never reaches reads 0. *)
let per_layer_metrics ~iter_sums ~replay_sums ~selfs ~overhead ~shares ~costs ~test_ratio =
  let v k = match List.assoc_opt k replay_sums with Some x -> x | None -> median_of k iter_sums in
  let s name = Metric.make name "s" (v name) in
  let n name = Metric.make name "count" (v name) in
  let loop_cycles = v "ooo.loop_cycles" in
  [
    s "ooo.loop_s";
    Metric.make "ooo.host_ns_per_cycle" "ns" (Metric.ratio (v "ooo.loop_s" *. 1e9) loop_cycles);
    Metric.make "ooo.minor_words_per_cycle" "words"
      (Metric.ratio (v "ooo.loop_minor_words") loop_cycles);
    Metric.make "ooo.skip_ratio" "ratio" (Metric.ratio (v "ooo.skipped_cycles") (v "sim.cycles"));
    s "ooo.multicore_s";
    s "ooo.create_s";
  ]
  @ List.map (fun st -> Metric.make ("ooo.stage." ^ st ^ ".share") "ratio" (lookup st shares)) stages
  @ List.map
      (fun (d : Defense.t) ->
        Metric.make ("defense." ^ d.Defense.id ^ ".host_ns_per_cycle") "ns"
          (lookup d.Defense.id costs))
      Defense.all
  @ [ s "workloads.build_s" ]
  @ List.map (fun p -> s ("protcc.instrument_s." ^ p)) passes
  @ [
      n "protcc.inserted_moves";
      s "ooo.decode_s";
      s "protcc.certify_s";
      n "protcc.cert_claims";
      s "arch.seq_s";
      n "arch.seq_steps";
      s "amulet.gen_s";
      Metric.make "amulet.test_ratio" "ratio" test_ratio;
      Metric.make "harness.parallel.busy_ratio" "ratio"
        (Metric.ratio (v "harness.parallel.task_s") (2. *. v "harness.parallel_s"));
      Metric.make "harness.frontend_reuse_ratio" "ratio"
        (Metric.ratio (v "harness.cells" -. v "harness.frontend_groups") (v "harness.cells"));
      s "harness.shard.encode_s";
      s "harness.shard.decode_s";
      Metric.make "harness.shard.frame_bytes" "bytes" (v "harness.shard.frame_bytes");
      n "harness.supervisor.retries";
      n "harness.supervisor.kills";
      n "harness.supervisor.fallbacks";
      s "telemetry.export_s";
      Metric.make "telemetry.export_bytes" "bytes" (v "telemetry.export_bytes");
    ]
  @ List.map (fun l -> Metric.make ("layer." ^ l ^ ".self_s") "s" (median_of l selfs)) layers
  @ [ Metric.make "tracing_overhead" "ratio" overhead ]

(* --trace 1: untraced and traced iterations alternate for the
   overhead; then the workload's replays; then the per-layer metrics. *)
let run_traced ~reference o x =
  let tally = { attempted = 0; failures = [] } in
  let sp = Spans.create () in
  let runs =
    repeat ~reference ~seconds:o.seconds (fun () ->
        let du, ou = timed (iteration x) in
        let dt, ot = timed (traced_iteration sp x) in
        count tally ou;
        count tally ot;
        let sums = Spans.take_sums sp in
        let self = Spans.take_self_times sp in
        (du +. dt, (du, dt, sums, self, [ ou.Work.sim_cycles; ot.Work.sim_cycles ])))
  in
  let samples = List.map (fun (_, r, (du, _, _, _, _)) -> (du, r)) runs in
  let runs = List.map (fun (_, _, v) -> v) runs in
  let untraced = List.map (fun (du, _, _, _, _) -> du) runs in
  let traced = List.map (fun (_, dt, _, _, _) -> dt) runs in
  let iter_sums = List.map (fun (_, _, s, _, _) -> s) runs in
  let selfs = List.map (fun (_, _, _, s, _) -> s) runs in
  check_repeats tally "simulated cycle total" (List.concat_map (fun (_, _, _, _, c) -> c) runs);
  check_repeats tally "ooo.minor_words_per_cycle"
    (List.map
       (fun s -> Metric.ratio (lookup "ooo.loop_minor_words" s) (lookup "ooo.loop_cycles" s))
       iter_sums);
  let shares, costs, replay_sums, test_ratio =
    match x with
    | Quick qx ->
        let p = Profile.create () in
        count tally (Work.tables_traced_iteration ~profile:p (Spans.create ()) qx);
        let shares = List.map (fun (st, _, share) -> (st, share)) (Profile.stage_breakdown p) in
        (shares, Work.defense_costs sp, [], 0.)
    | Fuzz fx ->
        let tallies = Work.fuzz_replay sp in
        count tally
          {
            Work.attempted = 1;
            failures = Checks.pairs ~what:"fuzz replay" ~expected:fx.Work.replay ~actual:tallies;
            sim_cycles = 0;
          };
        let get k = float_of_string (List.assoc k tallies) in
        let test_ratio = Metric.ratio (get "tests") (get "tests" +. get "skipped_pairs") in
        ([], [], Spans.take_sums sp, test_ratio)
    | Sharded _ -> ([], [], [], 0.)
  in
  Work.ensure_out_dir ();
  Work.write_file
    (Filename.concat Work.out_dir ("trace-" ^ o.workload ^ ".json"))
    (Spans.to_chrome_json sp);
  let overhead = (Stats.median traced /. Stats.median untraced) -. 1. in
  ( samples,
    tally,
    per_layer_metrics ~iter_sums ~replay_sums ~selfs ~overhead ~shares ~costs ~test_ratio )

(* ------------------------------------------------------------------ *)
(* Output                                                              *)
(* ------------------------------------------------------------------ *)

let result_json ~correct ~attempted ~failed metrics =
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": %s}" correct
    attempted failed (Metric.json_object metrics)

let json_str s = "\"" ^ String.escaped s ^ "\""

let json_floats l = "[" ^ String.concat ", " (List.map Metric.number l) ^ "]"

(* Wall-clock spread of the iterations, and the same at the
   reference host speed ([Reference]). *)
let spread samples =
  let wall = List.map fst samples in
  let scaled = List.map (fun (d, r) -> d *. Reference.nominal_s /. r) samples in
  (wall, scaled, List.map snd samples)

let spread_json samples =
  let wall, scaled, refs = spread samples in
  let q xs =
    Printf.sprintf "{\"median\": %s, \"p25\": %s, \"p75\": %s}"
      (Metric.number (Stats.median xs))
      (Metric.number (Stats.percentile 25. xs))
      (Metric.number (Stats.percentile 75. xs))
  in
  Printf.sprintf "{\"n\": %d, \"wall_s\": %s, \"normalized_s\": %s, \"reference_s\": %s}"
    (List.length samples) (q wall) (q scaled) (q refs)

(* One JSONL record per run in perfbench/history.jsonl, refused when
   the numbers could not be tied to a revision: no source revision, or
   an escape hatch set (a different program). *)
let history_path = Filename.concat "perfbench" "history.jsonl"

(* Whether this run may be recorded; says why not on standard error. *)
let history_allowed () =
  let labels = Report.build_info_labels () in
  let rev = List.assoc "rev" labels and hatches = List.assoc "hatches" labels in
  if rev = "unknown" then (
    prerr_endline "perfbench: history not recorded: source revision unknown";
    false)
  else if hatches <> "" then (
    prerr_endline ("perfbench: history not recorded: escape hatch set (" ^ hatches ^ ")");
    false)
  else true

let record_history ~o ~load_before ~samples ~correct metrics =
  let labels = Report.build_info_labels () in
  let line =
    Printf.sprintf
      "{\"time\": %s, \"workload\": %s, \"seed\": %d, \"seconds\": %s, \"trace\": %b, \
       \"build_info\": {%s}, \"nproc\": %d, \"loadavg_before\": %s, \"loadavg_after\": %s, \
       \"correct\": %b, \"iterations\": %s, \"metrics\": %s}\n"
      (Metric.number (now ())) (json_str o.workload) o.seed (Metric.number o.seconds) o.trace
      (String.concat ", " (List.map (fun (k, v) -> json_str k ^ ": " ^ json_str v) labels))
      (Domain.recommended_domain_count ())
      (json_floats load_before)
      (json_floats (Sysinfo.loadavg ()))
      correct (spread_json samples) (Metric.json_object metrics)
  in
  let oc = open_out_gen [ Open_append; Open_creat; Open_wronly ] 0o644 history_path in
  Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () -> output_string oc line)

let summary ~o ~samples ~tally metrics =
  let wall, scaled, refs = spread samples in
  let n = List.length wall in
  let b = Buffer.create 1024 in
  let num = Metric.number in
  Printf.bprintf b "perfbench %s (seed %d, %s): %d iterations\n" o.workload o.seed
    (if o.trace then "traced" else "untraced") n;
  Printf.bprintf b "  wall s per iteration: median %s, IQR %s" (num (Stats.median wall))
    (num (Stats.iqr wall));
  (match Stats.tail_percentile n with
  | Some p -> Printf.bprintf b ", p%.0f %s" p (num (Stats.percentile p wall))
  | None -> Printf.bprintf b ", max %s (fewer than 11 samples)" (num (Stats.percentile 100. wall)));
  Printf.bprintf b
    "\n  at reference speed: median %s, IQR %s (reference median %s s, nominal %s s)\n"
    (num (Stats.median scaled)) (num (Stats.iqr scaled)) (num (Stats.median refs))
    (num Reference.nominal_s);
  Printf.bprintf b "  %-36s %s ratio\n" "failed_share"
    (num (Metric.ratio (float_of_int (failed tally)) (float_of_int tally.attempted)));
  List.iter
    (fun m -> Printf.bprintf b "  %-36s %s %s\n" m.Metric.name (num m.Metric.value) m.Metric.unit_)
    metrics;
  Buffer.contents b

let main o =
  if o.workload = "" then die 2 "--workload is required";
  (* The result goes to the real standard output; whatever the
     simulator and harness print goes to standard error. *)
  flush stdout;
  let out = Unix.out_channel_of_descr (Unix.dup ~cloexec:true Unix.stdout) in
  Unix.dup2 Unix.stderr Unix.stdout;
  let recording = history_allowed () in
  let load_before = if recording then Sysinfo.loadavg () else [] in
  let spec, x = setup o.workload in
  (* Stopped after the peak-memory reading, so it is never counted. *)
  let reference = Reference.start ~flag:"--reference" in
  let samples, tally, metrics =
    Fun.protect
      ~finally:(fun () -> Reference.stop reference)
      (fun () -> if o.trace then run_traced ~reference o x else run_untraced ~reference o x)
  in
  let declared = if o.trace then spec.per_layer else spec.end_to_end in
  let names = List.map (fun m -> m.Metric.name) metrics in
  if List.sort compare names <> List.sort compare declared then
    die 3 "emitted metrics differ from BENCHMARK.json: emitted [%s], declared [%s]"
      (String.concat " " names) (String.concat " " declared);
  List.iter (fun f -> prerr_endline ("perfbench: FAILED " ^ f)) tally.failures;
  let correct = tally.failures = [] in
  output_string out (summary ~o ~samples ~tally metrics);
  output_string out
    (result_json ~correct ~attempted:tally.attempted ~failed:(failed tally) metrics ^ "\n");
  flush out;
  if recording then record_history ~o ~load_before ~samples ~correct metrics;
  exit (if correct then 0 else 1)

let () =
  let o = parse Sys.argv in
  match o.mode with
  | Run -> main o
  | Setup_only -> ignore (setup o.workload)
  | Worker ->
      Protean_ooo.Gc_tune.tune ();
      Work.worker ()
  | Reference_helper -> Reference.serve ()
  | Write_expected ->
      Protean_ooo.Gc_tune.tune ();
      Work.write_expected ()
