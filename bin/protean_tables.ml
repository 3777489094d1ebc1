(* protean-tables: regenerate the paper's results tables and figures
   (the artifact's table-*.py / figure-*.py scripts, Section A-G).

     protean-tables table-v
     protean-tables table-iv --bench perlbench --bench milc
     protean-tables all -j 8
     protean-tables table-v --shards 4 -j 2

   `-j N` runs the experiment grid on N domains via Experiment.prewarm;
   `--shards N` additionally spreads the grid over N crash-isolated
   worker *processes* (each running `-j N` domains internally) under
   the Supervisor: a worker that segfaults, stalls or gets OOM-killed
   is retried and, if a single cell keeps crashing, that cell is
   bisected out and reported as a structured fault while the rest of
   the grid completes.  Either way the printed output is byte-identical
   to the serial run. *)

open Cmdliner
module E = Protean_harness.Experiment
module Supervisor = Protean_harness.Supervisor
module Fault_inject = Protean_defense.Fault_inject
module Tables = Protean_harness.Tables
module Figures = Protean_harness.Figures
module Studies = Protean_harness.Studies
module Report = Protean_harness.Report

let what_arg =
  let doc =
    "What to generate: table-i, table-ii, table-iv, table-v, figure-5, \
     figure-6, protcc-overhead, l1d-variants, ablation-access, \
     control-model, bugfix-cost, width-sweep, over-protection, area, \
     golden, golden-width, or all."
  in
  Arg.(value & pos 0 string "table-v" & info [] ~docv:"WHAT" ~doc)

let bench_arg =
  let doc = "Restrict to these benchmarks (repeatable)." in
  Arg.(value & opt_all string [] & info [ "bench"; "b" ] ~docv:"NAME" ~doc)

let core_width_arg =
  Arg.(value & opt_all int [] & info [ "core-width" ] ~docv:"N"
         ~doc:"Restrict the width-sweep target to these issue widths \
               (repeatable; default 1 2 4 6 8). Other targets ignore it.")

let fuzz_programs_arg =
  Arg.(value & opt int 10 & info [ "fuzz-programs" ] ~docv:"N"
         ~doc:"Programs per Table II campaign.")

let check_certs_arg =
  Arg.(value & flag & info [ "check-certs" ]
         ~doc:"Audit the protection certificates of every ProtCC compile \
               in the grid with the independent checker before the binary \
               runs; a refuted certificate becomes a structured cell \
               fault. Stays in the worker argv, so shard workers audit \
               the cells they compile.")

let inject_arg =
  Arg.(value & opt (some string) None & info [ "inject-faults" ] ~docv:"MODE"
         ~doc:"Self-test the shard supervisor by arming a worker-level \
               fault: worker-kill, worker-stall, worker-truncate, or \
               worker-poison:N (abort whenever computing cell N). \
               Requires --shards > 1; the supervised run must still \
               complete (recovering, or isolating the poisoned cell).")

let heartbeat_arg =
  Arg.(value & opt float 120.0 & info [ "shard-heartbeat" ] ~docv:"SECS"
         ~doc:"Kill a worker that sends no frame for this long.")

let wall_arg =
  Arg.(value & opt float 3600.0 & info [ "shard-wall" ] ~docv:"SECS"
         ~doc:"Kill a worker spawn that outlives this wall-clock budget.")

let checkpoint_dir_arg =
  Arg.(value & opt (some string) None & info [ "checkpoint-dir" ] ~docv:"DIR"
         ~doc:"Persist per-shard results there (atomic JSON files); a \
               restarted supervised run resumes completed cells from them.")

(* Supervisor-only flags of this binary, dropped from the worker argv
   on top of the shared ones. *)
let supervisor_flags =
  [ "--inject-faults"; "--shard-heartbeat"; "--shard-wall"; "--checkpoint-dir" ]

let run (cli : Cli.t) what benches core_widths fuzz_programs check_certs
    inject heartbeat wall checkpoint_dir =
  let jobs = cli.Cli.jobs in
  if check_certs then Report.enable_cert_audit ();
  let benches = match benches with [] -> None | bs -> Some bs in
  let widths = match core_widths with [] -> None | ws -> Some ws in
  (* The over-protection audit reads the ledger's summary counters from
     every cell; flip collection before any simulation runs.  The switch
     rides the worker argv (the positional target is kept), so shard
     workers collect too and the counters ride home in [F_result]. *)
  if what = "over-protection" then E.collect_window := true;
  let session = E.create_session ~log:true () in
  (* Targets memoized through [session] can be prewarmed in parallel;
     the rest manage their own parallelism (or have none to exploit). *)
  let session_gen = function
    | "table-i" -> Some (fun () -> Tables.table_i ?benches session)
    | "table-iv" -> Some (fun () -> Tables.table_iv ?benches session)
    | "table-v" -> Some (fun () -> Tables.table_v ?benches session)
    | "figure-5" -> Some (fun () -> Figures.figure_5 ?benches session)
    | "figure-6" -> Some (fun () -> Figures.figure_6 ?benches session)
    | "protcc-overhead" -> Some (fun () -> Studies.protcc_overhead ?benches session)
    | "l1d-variants" -> Some (fun () -> Studies.l1d_variants ?benches session)
    | "ablation-access" -> Some (fun () -> Studies.ablation_access ?benches session)
    | "control-model" -> Some (fun () -> Studies.control_model ?benches session)
    | "bugfix-cost" -> Some (fun () -> Studies.bugfix_cost ?benches session)
    | "width-sweep" ->
        Some (fun () -> Tables.width_sweep ?benches ?widths session)
    (* Not in [session_targets]: `all` keeps the ledger detached so its
       grid cells stay byte-identical to the golden corpora. *)
    | "over-protection" ->
        Some (fun () -> Tables.over_protection ?benches session)
    | _ -> None
  in
  let session_targets =
    [
      "table-v"; "table-iv"; "table-i"; "figure-6"; "figure-5";
      "protcc-overhead"; "l1d-variants"; "ablation-access";
      "control-model"; "bugfix-cost";
    ]
  in
  (* One generator per sharded/prewarm scope: the target's own, or the
     combined session sweep for `all` (cells shared between tables run
     once, in one parallel or supervised pass). *)
  let combined_gen () =
    List.iter (fun w -> Option.get (session_gen w) ()) session_targets
  in
  let supervised gen =
    let config =
      {
        Supervisor.default_config with
        Supervisor.shards = cli.Cli.shards;
        heartbeat;
        wall;
        checkpoint_dir;
        inject = Option.map Fault_inject.worker_mode_of_string inject;
      }
    in
    Cli.with_metrics cli ~src:"tables" (Report.live_metrics session)
      (fun http ->
        let w = Cli.wiring cli ?http ~drop:supervisor_flags () in
        Supervisor.Grid.supervised ~bus:w.Cli.bus ~config ?pool:w.Cli.pool
          ?http ~worker_argv:w.Cli.worker_argv ~jobs session gen)
  in
  let gen_session g =
    if Cli.supervised cli then supervised g else E.prewarm ~jobs session g
  in
  let gen w =
    match session_gen w with
    | Some g -> gen_session g
    | None -> (
        match w with
        | "table-ii" -> Tables.table_ii ~jobs ~programs:fuzz_programs ()
        | "area" -> Studies.area_report ()
        | "golden" ->
            (* Regenerate the golden determinism corpus
               (test/golden_pipeline.expected). *)
            List.iter print_endline (Protean_harness.Golden.lines ~jobs ())
        | "golden-width" ->
            (* Regenerate the width-sweep golden corpus
               (test/golden_width.expected). *)
            List.iter print_endline
              (Protean_harness.Golden.width_lines ~jobs ())
        | s -> invalid_arg ("unknown table/figure: " ^ s))
  in
  if Cli.is_worker cli then
    (* Spawned by a supervisor (--worker: frames on stdin/stdout) or
       dialing one remotely (--connect).  The discovery pass below
       enumerates exactly the supervisor's cells because the argv
       (minus supervisor flags) matches. *)
    let g =
      match what with
      | "all" -> combined_gen
      | w -> (
          match session_gen w with
          | Some g -> g
          | None ->
              invalid_arg ("--worker is only meaningful for grid targets: " ^ w))
    in
    Supervisor.Grid.worker ~jobs ?connect:cli.Cli.connect ~token:cli.Cli.token
      session g
  else begin
    (match what with
    | "all" ->
        gen_session combined_gen;
        gen "area";
        gen "table-ii"
    | w -> gen w);
    let tele = cli.Cli.tele in
    if Report.wanted tele then Report.write_outputs tele session
  end

let cmd =
  let doc = "regenerate the PROTEAN paper's tables and figures" in
  Cmd.v
    (Cmd.info "protean-tables" ~doc)
    Term.(
      const run $ Cli.term $ what_arg $ bench_arg $ core_width_arg
      $ fuzz_programs_arg $ check_certs_arg $ inject_arg $ heartbeat_arg
      $ wall_arg $ checkpoint_dir_arg)

let () = exit (Cmd.eval cmd)
