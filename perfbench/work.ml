(* The three workloads: their untraced iterations (the calls the CLIs
   make), their traced iterations and replays (the same work driven
   through each layer's public function under spans), their output
   checks, and the serial reference run that writes the committed
   expectations.

   - tables-quick: Table V on five benchmarks (20 cells), serial, a
     fresh session per iteration, telemetry detached — what
     `protean-tables table-v --bench ... -j 1` does.
   - tables-sharded: the same 20 cells under the shard supervisor with
     two worker processes and the metrics, flamegraph and attribution
     exporters — what `protean-tables table-v --bench ... --shards 2
     --metrics-out .. --flamegraph-out .. --attr-out ..` does.
   - fuzz-ct: a 200-program x 5-input AMuLeT campaign, CT contract,
     prot-track, cache+TLB adversary, certificates checked, through the
     resilient parallel driver at -j 2 — what `protean-fuzz -c ct -d
     prot-track -n 200 -i 5 --check-certs -j 2` does. *)

module E = Protean_harness.Experiment
module Tables = Protean_harness.Tables
module Report = Protean_harness.Report
module Supervisor = Protean_harness.Supervisor
module Shard = Protean_harness.Shard
module Parallel = Protean_harness.Parallel
module Suite = Protean_workloads.Suite
module Protcc = Protean_protcc.Protcc
module Certify = Protean_protcc.Certify
module Contract = Protean_arch.Contract
module Defense = Protean_defense.Defense
module Config = Protean_ooo.Config
module Pipeline = Protean_ooo.Pipeline
module Pstate = Protean_ooo.Pipeline_state
module Multicore = Protean_ooo.Multicore
module Profile = Protean_ooo.Profile
module Stats = Protean_ooo.Stats
module Hw_trace = Protean_ooo.Hw_trace
module Fuzz = Protean_amulet.Fuzz

(* One iteration's verdict: operations attempted, mismatches (each a
   failed operation), and its simulated cycle total. *)
type outcome = { attempted : int; failures : string list; sim_cycles : int }

let now = Unix.gettimeofday

(* ------------------------------------------------------------------ *)
(* Files                                                               *)
(* ------------------------------------------------------------------ *)

let expected_dir = Filename.concat "perfbench" "expected"
let out_dir = Filename.concat "perfbench" "_out"

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path s =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () -> output_string oc s)

let expected name = read_file (Filename.concat expected_dir name)

let ensure_out_dir () =
  if not (Sys.file_exists out_dir) then Unix.mkdir out_dir 0o755

(* Format.std_formatter output of [f] (where the table generators
   print), captured instead of printed. *)
let capture f =
  let buf = Buffer.create 4096 in
  Format.print_flush ();
  let out, flush = Format.get_formatter_output_functions () in
  Format.set_formatter_output_functions (Buffer.add_substring buf) ignore;
  Fun.protect
    ~finally:(fun () ->
      Format.print_flush ();
      Format.set_formatter_output_functions out flush)
    f;
  Buffer.contents buf

(* The ProtCC and shared-frontend caches live for the whole process;
   every CLI call starts with them empty, so every iteration does too. *)
let fresh_process_caches () =
  Hashtbl.reset E.protcc_cache;
  Hashtbl.reset E.frontend_cache

(* ------------------------------------------------------------------ *)
(* Tables                                                              *)
(* ------------------------------------------------------------------ *)

(* Table V's quick subset: one benchmark per class suite plus the
   multi-class web server, so all four ProtCC passes and the lockstep
   multicore run. *)
let benches = [ "lbm"; "hacl.poly1305"; "bearssl"; "ossl.bnexp"; "nginx.c1r1" ]

let gen session () = Tables.table_v ~benches session

let core_cycles (r : E.run_result) =
  List.fold_left (fun acc (s : Stats.t) -> acc + s.Stats.cycles) 0 r.E.stats

let skipped_cycles (r : E.run_result) =
  List.fold_left (fun acc (s : Stats.t) -> acc + s.Stats.skipped_cycles) 0 r.E.stats

(* Per cell: measured cycles and simulated core-cycles. *)
let cell_pairs (session : E.session) =
  Hashtbl.fold
    (fun k r acc -> (k, Printf.sprintf "%.0f %d" r.E.cycles (core_cycles r)) :: acc)
    session.E.cache []
  |> List.sort compare

let session_cycles (session : E.session) =
  Hashtbl.fold (fun _ r acc -> acc + core_cycles r) session.E.cache 0

let check_tables ~table ~cells (session : E.session) text =
  {
    attempted = List.length cells + 1;
    failures =
      Checks.text ~what:"table-v" ~expected:table ~actual:text
      @ Checks.pairs ~what:"cell cycles" ~expected:cells ~actual:(cell_pairs session);
    sim_cycles = session_cycles session;
  }

type tables_expected = { table : string; cells : (string * string) list }

let load_tables () =
  { table = expected "table-v.txt"; cells = Checks.parse_pairs (expected "cells.tsv") }

let tables_quick_iteration (x : tables_expected) =
  fresh_process_caches ();
  let session = E.create_session () in
  let text = capture (fun () -> E.prewarm ~jobs:1 session (gen session)) in
  check_tables ~table:x.table ~cells:x.cells session text

(* --- traced: the cells driven layer by layer ----------------------- *)

let pass_metric = function
  | Protcc.P_arch -> "protcc.instrument_s.arch"
  | Protcc.P_cts -> "protcc.instrument_s.cts"
  | Protcc.P_ct -> "protcc.instrument_s.ct"
  | Protcc.P_unr -> "protcc.instrument_s.unr"
  | Protcc.P_rand _ -> "protcc.instrument_s.rand"

(* The step loop of [Pipeline.run] (skip-ahead on, default watchdog),
   timed, with its exact minor-heap allocation. *)
let drive sp ~parent ?replay ?args ~fuel (t : Pipeline.t) =
  Spans.with_span sp ~parent ?replay ?args ~metric:"ooo.loop_s" ~layer:"ooo"
    "Pipeline.step" (fun _ ->
      let w0 = Gc.minor_words () in
      while (not (Pipeline.is_done t)) && t.Pstate.cycle < fuel do
        Pipeline.step ~until:fuel t
      done;
      let w1 = Gc.minor_words () in
      Spans.add sp "ooo.loop_minor_words" (w1 -. w0));
  Spans.add sp "ooo.loop_cycles" (float_of_int t.Pstate.cycle);
  Pipeline.finish t

(* [Experiment.build_frontend], one layer call per span. *)
let frontend_traced sp ~parent (spec : E.run_spec) =
  let args = [ ("frontend", E.frontend_key spec) ] in
  let span ~layer ~metric name f =
    Spans.with_span sp ~parent ~args ~metric ~layer name (fun _ -> f ())
  in
  let build f = span ~layer:"workloads" ~metric:"workloads.build_s" "Suite.build" f in
  let programs =
    match spec.E.bench.Suite.kind with
    | Suite.Single f -> [| build f |]
    | Suite.Multi f -> build f
  in
  let instrument program =
    let res =
      match (spec.E.dcfg.E.pass, spec.E.multiclass) with
      | None, false -> None
      | None, true ->
          Some (span ~layer:"protcc" ~metric:"protcc.instrument_s.multi" "Protcc.instrument"
                  (fun () -> Protcc.instrument program))
      | Some pass, _ ->
          Some (span ~layer:"protcc" ~metric:(pass_metric pass) "Protcc.instrument"
                  (fun () -> Protcc.instrument ~pass_override:pass program))
    in
    match res with
    | None -> (program, 1.0, 0)
    | Some r ->
        Spans.add sp "protcc.inserted_moves" (float_of_int r.Protcc.inserted_moves);
        (r.Protcc.program, r.Protcc.code_size_ratio, r.Protcc.inserted_moves)
  in
  let inst = Array.map instrument programs in
  let programs = Array.map (fun (p, _, _) -> p) inst in
  let _, ratio, moves = inst.(Array.length inst - 1) in
  {
    E.fe_key = (if !E.share_frontend then E.frontend_key spec else "");
    fe_programs = programs;
    fe_decode =
      Array.map
        (fun p -> span ~layer:"ooo" ~metric:"ooo.decode_s" "Pipeline.decode_program"
                    (fun () -> Pipeline.decode_program p))
        programs;
    fe_ratio = ratio;
    fe_moves = moves;
  }

(* [Experiment.execute] with telemetry detached, one layer call per
   span; [profile] attaches the stage profiler to every core. *)
let cell_traced sp ~parent ?profile ~key (fe : E.frontend) (spec : E.run_spec) =
  let args = [ ("cell", key) ] in
  let make_policy parent () =
    Spans.with_span sp ~parent ~args ~layer:"defense" "Defense.make" (fun _ -> spec.E.dcfg.E.defense.Defense.make ())
  in
  let attached = ref [] in
  let attach t =
    Option.iter (fun p -> Profile.attach p t; attached := t :: !attached) profile
  in
  let result cycles stats =
    {
      E.cycles;
      stats;
      code_size_ratio = fe.E.fe_ratio;
      inserted_moves = fe.E.fe_moves;
      policy_metrics = [];
      flame = [];
      frontend = fe.E.fe_key;
      window = [];
    }
  in
  let r =
    match spec.E.bench.Suite.kind with
    | Suite.Single _ ->
        let policy = make_policy parent () in
        let t =
          Spans.with_span sp ~parent ~args ~metric:"ooo.create_s" ~layer:"ooo"
            "Pipeline.create" (fun _ ->
              Pipeline.create ~squash_bug:spec.E.squash_bug
                ~spec_model:spec.E.spec_model ~decode:fe.E.fe_decode.(0)
                spec.E.config policy fe.E.fe_programs.(0) ~overlays:[])
        in
        attach t;
        let r = drive sp ~parent ~args ~fuel:E.default_fuel t in
        if not r.Pipeline.finished then failwith ("did not finish: " ^ key);
        result (float_of_int (Stats.measured_cycles r.Pipeline.stats)) [ r.Pipeline.stats ]
    | Suite.Multi _ ->
        let r =
          Spans.with_span sp ~parent ~args ~metric:"ooo.multicore_s" ~layer:"ooo"
            "Multicore.run" (fun id ->
              Multicore.run ~squash_bug:spec.E.squash_bug
                ~spec_model:spec.E.spec_model ~decode:fe.E.fe_decode
                ~fuel:E.default_fuel
                ~on_core:(fun _ t -> attach t)
                spec.E.config ~make_policy:(make_policy id) fe.E.fe_programs)
        in
        if not r.Multicore.finished then failwith ("did not finish: " ^ key);
        result (float_of_int r.Multicore.cycles)
          (Array.to_list
             (Array.map (fun (c : Pipeline.result) -> c.Pipeline.stats) r.Multicore.per_core))
  in
  List.iter Profile.detach !attached;
  r

let tables_traced_iteration ?profile sp (x : tables_expected) =
  fresh_process_caches ();
  Spans.with_span sp ~layer:"harness" "tables-quick iteration" (fun root ->
      let session = E.create_session () in
      let cells =
        Spans.with_span sp ~parent:root ~layer:"harness" "Experiment.discover"
          (fun _ -> E.discover session (gen session))
      in
      let groups = E.group_cells cells in
      Spans.add sp "harness.cells" (float_of_int (List.length cells));
      Spans.add sp "harness.frontend_groups" (float_of_int (List.length groups));
      let results =
        List.concat_map
          (fun group ->
            let fe = frontend_traced sp ~parent:root (snd (List.hd group)) in
            List.map
              (fun (key, spec) ->
                match cell_traced sp ~parent:root ?profile ~key fe spec with
                | r -> (key, r)
                | exception (Pipeline.Sim_fault _ | Failure _) -> (key, E.faulted_result))
              group)
          groups
      in
      E.install session results;
      let text =
        Spans.with_span sp ~parent:root ~layer:"harness" "Tables.table_v"
          (fun _ -> capture (gen session))
      in
      Hashtbl.iter
        (fun _ r -> Spans.add sp "ooo.skipped_cycles" (float_of_int (skipped_cycles r)))
        session.E.cache;
      Spans.add sp "sim.cycles" (float_of_int (session_cycles session));
      check_tables ~table:x.table ~cells:x.cells session text)

(* Host ns per simulated cycle of every defense on one bench: the
   UNR-compiled ossl.bnexp, so each policy's cost reads as its
   difference from unsafe.  At least 3 runs and 0.1 s of loop per
   defense, after one warm-up run. *)
let defense_costs sp =
  Spans.with_span sp ~replay:true ~layer:"defense" "defense cost replay" (fun root ->
      let program =
        match (Suite.find "ossl.bnexp").Suite.kind with
        | Suite.Single f -> (Protcc.instrument ~pass_override:Protcc.P_unr (f ())).Protcc.program
        | Suite.Multi _ -> invalid_arg "ossl.bnexp is single-core"
      in
      let decode = Pipeline.decode_program program in
      List.map
        (fun (d : Defense.t) ->
          let once () =
            let t =
              Pipeline.create ~decode Config.p_core (d.Defense.make ()) program ~overlays:[]
            in
            let t0 = now () in
            while (not (Pipeline.is_done t)) && t.Pstate.cycle < E.default_fuel do
              Pipeline.step ~until:E.default_fuel t
            done;
            (now () -. t0, t.Pstate.cycle)
          in
          ignore (once ());
          let rec loop runs secs cycles =
            if runs >= 3 && secs >= 0.1 then (secs, cycles)
            else
              let s, c = once () in
              loop (runs + 1) (secs +. s) (cycles + c)
          in
          let secs, cycles =
            Spans.with_span sp ~parent:root ~replay:true ~layer:"defense"
              ~args:[ ("defense", d.Defense.id) ] "Pipeline.step" (fun _ -> loop 0 0. 0)
          in
          (d.Defense.id, secs *. 1e9 /. float_of_int (max 1 cycles)))
        Defense.all)

(* ------------------------------------------------------------------ *)
(* Tables under the shard supervisor                                   *)
(* ------------------------------------------------------------------ *)

let export_files =
  [ ("metrics", "metrics.prom"); ("flamegraph", "flame.folded"); ("attribution", "attr.json") ]

let out_path what = Filename.concat out_dir (List.assoc what export_files)

let tele =
  {
    Report.metrics_out = Some (out_path "metrics");
    trace_out = None;
    flamegraph_out = Some (out_path "flamegraph");
    attr_out = Some (out_path "attribution");
  }

(* The runtime families describe this run's process topology and host,
   not the simulated machine; everything else must match the serial run. *)
let runtime_families = [ "protean_supervisor_"; "protean_build_info" ]

let exports () =
  List.map
    (fun (what, _) ->
      let text = read_file (out_path what) in
      (what, if what = "metrics" then Checks.drop_families runtime_families text else text))
    export_files

type sharded_expected = { tables : tables_expected; files : (string * string) list }

let load_sharded () =
  {
    tables = load_tables ();
    files = List.map (fun (what, f) -> (what, expected f)) export_files;
  }

(* [protean_supervisor_<name> N] from the exported metrics text; the
   registry accumulates over the process, so callers difference it. *)
let supervisor_counter name =
  let prefix = "protean_supervisor_" ^ name ^ " " in
  let text = read_file (out_path "metrics") in
  List.fold_left
    (fun acc line ->
      let n = String.length prefix in
      if String.length line > n && String.sub line 0 n = prefix then
        Option.value ~default:acc
          (float_of_string_opt (String.sub line n (String.length line - n)))
      else acc)
    0. (Checks.lines text)

(* Report.enable flips the same collection switches the CLI's exporter
   flags do, in the supervisor and (via [--worker]) in every worker. *)
let enable_exports ~worker =
  ensure_out_dir ();
  Report.enable ~worker tele

(* A span around [f] when tracing, [f] alone otherwise. *)
let maybe_span sp ?parent ?metric ~layer name f =
  match sp with
  | Some sp -> Spans.with_span sp ?parent ?metric ~layer name (fun _ -> f ())
  | None -> f ()

let supervised ?sp ?parent session =
  let bus = Supervisor.create_bus () in
  Supervisor.subscribe bus ~name:"log" (Supervisor.logger ());
  Supervisor.subscribe bus ~name:"telemetry" (Report.supervisor_observer ());
  let config = { Supervisor.default_config with Supervisor.shards = 2 } in
  let worker_argv = [| Sys.executable_name; "--worker" |] in
  maybe_span sp ?parent ~layer:"harness" "Supervisor.Grid.supervised" (fun () ->
      capture (fun () ->
          Supervisor.Grid.supervised ~bus ~config ~worker_argv ~jobs:1 session
            (gen session)))

let check_sharded (x : sharded_expected) session text =
  let o = check_tables ~table:x.tables.table ~cells:x.tables.cells session text in
  let actual = exports () in
  {
    o with
    attempted = o.attempted + List.length x.files;
    failures =
      o.failures
      @ List.concat_map
          (fun (what, expected) ->
            Checks.text ~what ~expected ~actual:(List.assoc what actual))
          x.files;
  }

let write_exports ?sp ?parent session =
  maybe_span sp ?parent ~metric:"telemetry.export_s" ~layer:"telemetry"
    "Report.write_outputs" (fun () -> Report.write_outputs tele session)

let tables_sharded_iteration (x : sharded_expected) =
  fresh_process_caches ();
  let session = E.create_session () in
  let text = supervised session in
  write_exports session;
  check_sharded x session text

(* The worker side: the same discovery over the same generator, so the
   same cells at the same ids. *)
let worker () =
  enable_exports ~worker:true;
  let session = E.create_session () in
  Supervisor.Grid.worker ~jobs:1 session (gen session)

(* Frame codec replay: every merged cell result encoded into the
   F_result frame a worker sends and decoded as the supervisor does;
   the round trip must give the result back unchanged. *)
let codec_replay sp (session : E.session) =
  Spans.with_span sp ~replay:true ~layer:"harness" "frame codec replay" (fun root ->
      let cells =
        Hashtbl.fold (fun k r acc -> (k, r) :: acc) session.E.cache [] |> List.sort compare
      in
      List.concat
        (List.mapi
           (fun i (key, r) ->
             let args = [ ("cell", key) ] in
             let span ~metric name f =
               Spans.with_span sp ~parent:root ~replay:true ~args ~metric ~layer:"harness" name
                 (fun _ -> f ())
             in
             let bytes =
               span ~metric:"harness.shard.encode_s" "Shard.encode_frame" (fun () ->
                   Shard.encode_frame
                     (Shard.F_result (i, Supervisor.Grid.result_to_json r)))
             in
             Spans.add sp "harness.shard.frame_bytes" (float_of_int (Bytes.length bytes));
             let back =
               span ~metric:"harness.shard.decode_s" "Shard.Decoder.next" (fun () ->
                   let d = Shard.Decoder.create () in
                   Shard.Decoder.feed d bytes 0 (Bytes.length bytes);
                   match Shard.Decoder.next d with
                   | Some (Shard.F_result (_, j)) -> Some (Supervisor.Grid.result_of_json j)
                   | _ -> None)
             in
             match back with
             | Some r' when compare r r' = 0 -> []
             | _ -> [ "frame codec: round trip changed cell " ^ key ])
           cells))

let tables_sharded_traced_iteration sp (x : sharded_expected) =
  fresh_process_caches ();
  Spans.with_span sp ~layer:"harness" "tables-sharded iteration" (fun root ->
      let session = E.create_session () in
      let counters () =
        List.map
          (fun n -> (n, supervisor_counter (n ^ "_total")))
          [ "retries"; "kills"; "fallbacks" ]
      in
      (* The runtime registry counts over the whole process: difference
         the values this process exported before and after. *)
      let before = counters () in
      let text = supervised ~sp ~parent:root session in
      write_exports ~sp ~parent:root session;
      List.iter2
        (fun (n, b) (_, a) -> Spans.add sp ("harness.supervisor." ^ n) (a -. b))
        before (counters ());
      let bytes =
        List.fold_left
          (fun acc (what, _) -> acc + (Unix.stat (out_path what)).Unix.st_size)
          0 export_files
      in
      Spans.add sp "telemetry.export_bytes" (float_of_int bytes);
      Hashtbl.iter
        (fun _ (r : E.run_result) ->
          Spans.add sp "harness.cells" 1.;
          Spans.add sp "ooo.skipped_cycles" (float_of_int (skipped_cycles r)))
        session.E.cache;
      let groups = Hashtbl.create 8 in
      Hashtbl.iter
        (fun _ (r : E.run_result) -> Hashtbl.replace groups r.E.frontend ())
        session.E.cache;
      Spans.add sp "harness.frontend_groups" (float_of_int (Hashtbl.length groups));
      Spans.add sp "sim.cycles" (float_of_int (session_cycles session));
      let o = check_sharded x session text in
      { o with attempted = o.attempted + 1; failures = o.failures @ codec_replay sp session })

(* ------------------------------------------------------------------ *)
(* Fuzz campaign                                                       *)
(* ------------------------------------------------------------------ *)

(* The campaign seed is fixed: its outcome counts are the committed
   expectation, and campaigns of other seeds differ in work by up to 2x,
   which would drown any change being measured. *)
let campaign_seed = 1

let campaign =
  {
    (Fuzz.campaign_for ~seed:campaign_seed ~programs:200 ~inputs:5 "ct") with
    Fuzz.adversary = Fuzz.Cache_tlb;
    check_certs = true;
  }

let defense = Defense.find "prot-track"

let outcome_pairs (o : Fuzz.outcome) ~completed ~skipped_programs =
  List.map
    (fun (k, v) -> (k, string_of_int v))
    [
      ("tests", o.Fuzz.tests);
      ("skipped_pairs", o.Fuzz.skipped);
      ("violations", o.Fuzz.violations);
      ("false_positives", o.Fuzz.false_positives);
      ("certs_checked", o.Fuzz.certs_checked);
      ("cert_claims", o.Fuzz.cert_claims);
      ("cert_violations", o.Fuzz.cert_violations);
      ("programs_completed", completed);
      ("programs_skipped", skipped_programs);
    ]

type fuzz_expected = { counts : (string * string) list; replay : (string * string) list }

let load_fuzz () =
  {
    counts = Checks.parse_pairs (expected "fuzz-ct.tsv");
    replay = Checks.parse_pairs (expected "fuzz-ct-replay.tsv");
  }

let fuzz_sim_cycles (x : fuzz_expected) =
  Option.value ~default:0 (Option.bind (List.assoc_opt "sim_cycles" x.replay) int_of_string_opt)

let check_fuzz (x : fuzz_expected) o ~completed ~skipped_programs =
  {
    attempted = campaign.Fuzz.programs + 1;
    failures =
      List.init skipped_programs (fun i -> Printf.sprintf "fuzz: program skipped (%d)" (i + 1))
      @ Checks.pairs ~what:"fuzz outcome" ~expected:x.counts
          ~actual:(outcome_pairs o ~completed ~skipped_programs);
    sim_cycles = fuzz_sim_cycles x;
  }

(* The CLI's --check-certs also arms the checker's global switch. *)
let enable_certs () = Certify.enabled := true

let fuzz_iteration (x : fuzz_expected) =
  let r = Parallel.fuzz_run_resilient ~jobs:2 campaign defense in
  let skipped = List.length r.Fuzz.r_skipped in
  check_fuzz x r.Fuzz.r_outcome ~completed:r.Fuzz.r_completed ~skipped_programs:skipped

(* Traced: the same per-program fan-out over [Parallel.map], one span
   per generator and per [Fuzz.test_program] call, with each task's
   busy time for the driver's busy ratio. *)
let fuzz_traced_iteration sp (x : fuzz_expected) =
  Spans.with_span sp ~layer:"harness" "fuzz-ct iteration" (fun root ->
      let n = campaign.Fuzz.programs in
      let busy = Array.make n 0. in
      let subs =
        Spans.with_span sp ~parent:root ~metric:"harness.parallel_s" ~layer:"harness"
          "Parallel.map" (fun map_id ->
            Parallel.map ~jobs:2
              (Array.init n (fun index () ->
                   let t0 = now () in
                   let args = [ ("program", string_of_int index) ] in
                   let span ?metric name f =
                     Spans.with_span sp ~parent:map_id ~args ?metric ~layer:"amulet" name
                       (fun _ -> f ())
                   in
                   let program =
                     span ~metric:"amulet.gen_s" "Fuzz.generate_program" (fun () ->
                         Fuzz.generate_program campaign index)
                   in
                   let test () =
                     span "Fuzz.test_program" (fun () ->
                         Fuzz.test_program campaign defense ~index ~program)
                   in
                   let r =
                     match test () with
                     | o -> Some o
                     | exception _ -> (try Some (test ()) with _ -> None)
                   in
                   busy.(index) <- now () -. t0;
                   r)))
      in
      Spans.add sp "harness.parallel.task_s" (Array.fold_left ( +. ) 0. busy);
      let out = Fuzz.fresh_outcome () in
      Array.iter (Option.iter (fun o -> Fuzz.merge_outcome ~into:out o)) subs;
      let completed = Array.fold_left (fun acc o -> if o = None then acc else acc + 1) 0 subs in
      check_fuzz x out ~completed ~skipped_programs:(n - completed))

(* Replay of what [Fuzz.test_program] does inside, on the same inputs:
   ProtCC-CT, the certificate audit, the SEQ contract executor on both
   halves of every pair, and the two hardware runs of each
   contract-equivalent pair.  Returns the replay's own tallies, which
   must agree with the campaign's counts. *)
let fuzz_replay sp =
  let tally = Hashtbl.create 8 in
  let bump k n = Hashtbl.replace tally k (n + Option.value ~default:0 (Hashtbl.find_opt tally k)) in
  Spans.with_span sp ~replay:true ~layer:"amulet" "campaign replay" (fun root ->
      for index = 0 to campaign.Fuzz.programs - 1 do
        let args = [ ("program", string_of_int index) ] in
        let span ~layer ~metric name f =
          Spans.with_span sp ~parent:root ~replay:true ~args ~metric ~layer name (fun _ -> f ())
        in
        let program = Fuzz.generate_program campaign index in
        let res =
          span ~layer:"protcc" ~metric:"protcc.instrument_s.ct" "Protcc.instrument" (fun () ->
              Protcc.instrument ~pass_override:Protcc.P_ct program)
        in
        Spans.add sp "protcc.inserted_moves" (float_of_int res.Protcc.inserted_moves);
        (* The input draw of [Fuzz.test_program]. *)
        let rng = Random.State.make [| Fuzz.program_seed campaign index; 0xfeed |] in
        let public = Protean_amulet.Gen.random_public rng in
        let base = Protean_amulet.Gen.random_secret rng in
        let others =
          List.init campaign.Fuzz.inputs_per_program (fun _ -> Protean_amulet.Gen.random_secret rng)
        in
        let audit =
          span ~layer:"protcc" ~metric:"protcc.certify_s" "Certify.audit" (fun () ->
              Certify.audit
                ~inputs:(List.map (fun o -> ([ public; base ], [ public; o ])) others)
                ~original:program res)
        in
        Spans.add sp "protcc.cert_claims" (float_of_int audit.Certify.claims);
        bump "cert_violations" (List.length audit.Certify.violations);
        let prog = res.Protcc.program in
        let mode = campaign.Fuzz.mode_of res.Protcc.typing in
        List.iter
          (fun other ->
            let a = [ public; base ] and b = [ public; other ] in
            let seq overlays =
              let r =
                span ~layer:"arch" ~metric:"arch.seq_s" "Contract.run" (fun () ->
                    Contract.run ~fuel:50_000 mode prog ~overlays)
              in
              Spans.add sp "arch.seq_steps" (float_of_int r.Contract.steps);
              r
            in
            let ca = seq a and cb = seq b in
            if ca.Contract.exhausted || cb.Contract.exhausted
               || not (Contract.traces_equal ca.Contract.trace cb.Contract.trace)
            then bump "skipped_pairs" 1
            else begin
              bump "tests" 1;
              let hw overlays =
                let t =
                  span ~layer:"ooo" ~metric:"ooo.create_s" "Pipeline.create" (fun () ->
                      Pipeline.create ~trace:true ~squash_bug:campaign.Fuzz.squash_bug
                        ~spec_model:campaign.Fuzz.spec_model campaign.Fuzz.config
                        (defense.Defense.make ()) prog ~overlays)
                in
                let r = drive sp ~parent:root ~replay:true ~args ~fuel:400_000 t in
                bump "sim_cycles" r.Pipeline.stats.Stats.cycles;
                Spans.add sp "sim.cycles" (float_of_int r.Pipeline.stats.Stats.cycles);
                Spans.add sp "ooo.skipped_cycles"
                  (float_of_int r.Pipeline.stats.Stats.skipped_cycles);
                r
              in
              let ha = hw a and hb = hw b in
              if not
                   (Hw_trace.view_equal
                      (Hw_trace.cache_tlb_view ha.Pipeline.trace)
                      (Hw_trace.cache_tlb_view hb.Pipeline.trace))
              then bump "views_differ" 1
            end)
          others
      done);
  List.map
    (fun k -> (k, string_of_int (Option.value ~default:0 (Hashtbl.find_opt tally k))))
    [ "tests"; "skipped_pairs"; "views_differ"; "cert_violations"; "sim_cycles" ]

(* ------------------------------------------------------------------ *)
(* Expectations                                                        *)
(* ------------------------------------------------------------------ *)

(* The serial reference run: Table V serially with telemetry detached,
   then again with the exporters' collection switches on (the
   tables-sharded reference), then the serial campaign and its replay. *)
let write_expected () =
  if not (Sys.file_exists expected_dir) then Unix.mkdir expected_dir 0o755;
  let put name s = write_file (Filename.concat expected_dir name) s in
  fresh_process_caches ();
  let session = E.create_session () in
  let table = capture (gen session) in
  put "table-v.txt" table;
  put "cells.tsv" (Checks.render_pairs (cell_pairs session));
  enable_exports ~worker:false;
  fresh_process_caches ();
  let session = E.create_session () in
  if capture (gen session) <> table then failwith "table-v changed with exporters on";
  Report.write_outputs tele session;
  List.iter (fun (what, f) -> put f (List.assoc what (exports ()))) export_files;
  enable_certs ();
  let r = Fuzz.run_resilient campaign defense in
  put "fuzz-ct.tsv"
    (Checks.render_pairs
       (outcome_pairs r.Fuzz.r_outcome ~completed:r.Fuzz.r_completed
          ~skipped_programs:(List.length r.Fuzz.r_skipped)));
  let replay = fuzz_replay (Spans.create ()) in
  List.iter
    (fun (k, n) ->
      if List.assoc k replay <> string_of_int n then
        failwith ("fuzz replay disagrees with the campaign on " ^ k))
    [ ("tests", r.Fuzz.r_outcome.Fuzz.tests); ("skipped_pairs", r.Fuzz.r_outcome.Fuzz.skipped) ];
  put "fuzz-ct-replay.tsv" (Checks.render_pairs replay)
