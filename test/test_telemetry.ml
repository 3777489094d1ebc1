(* Telemetry-layer tests: registry semantics, deterministic snapshots
   and merges (serial vs [-j N] vs the shard frame protocol), exporter
   well-formedness (Prometheus text, JSON, Chrome trace events, folded
   flamegraphs), the structured logger, and the profiler's
   detach-flush path (a profiler unsubscribed mid-run must still
   deliver its partial samples). *)

module Metrics = Protean_telemetry.Metrics
module Trace = Protean_telemetry.Trace
module Flame = Protean_telemetry.Flame
module Tlog = Protean_telemetry.Log
module Hooks = Protean_ooo.Hooks
module Profile = Protean_ooo.Profile
module Pipeline = Protean_ooo.Pipeline
module Config = Protean_ooo.Config
module Stats = Protean_ooo.Stats
module Policy = Protean_ooo.Policy
module Suite = Protean_workloads.Suite
module E = Protean_harness.Experiment
module Report = Protean_harness.Report
module Supervisor = Protean_harness.Supervisor
module Json = Protean_harness.Shard.Json
module Fuzz = Protean_amulet.Fuzz
module Gen = Protean_amulet.Gen
module Parallel = Protean_harness.Parallel
module Defense = Protean_defense.Defense
module Twindow = Protean_telemetry.Window

(* --- registry semantics ---------------------------------------------- *)

let test_registry_basics () =
  let reg = Metrics.create () in
  let c = Metrics.counter reg ~help:"h" ~labels:[ ("b", "2"); ("a", "1") ] "c" in
  Metrics.inc c;
  Metrics.inc ~n:41 c;
  let g = Metrics.gauge reg "g" in
  Metrics.set g 7;
  Metrics.set g 3; (* gauges keep the max: order-free merges *)
  let h = Metrics.histogram reg ~buckets:[| 10; 100 |] "h" in
  List.iter (Metrics.observe h) [ 5; 50; 500; 10 ];
  let snap = Metrics.snapshot reg in
  Alcotest.(check int) "three samples" 3 (List.length snap);
  let find f = List.find (fun s -> s.Metrics.s_family = f) snap in
  Alcotest.(check int) "counter" 42 (find "c").Metrics.s_value;
  Alcotest.(check (list (pair string string)))
    "labels sorted at registration"
    [ ("a", "1"); ("b", "2") ]
    (find "c").Metrics.s_labels;
  Alcotest.(check int) "gauge keeps max" 7 (find "g").Metrics.s_value;
  let hs = find "h" in
  Alcotest.(check int) "histogram sum" 565 hs.Metrics.s_value;
  Alcotest.(check int) "histogram count" 4 hs.Metrics.s_count;
  (* Buckets are non-cumulative internally: [5,10] / [50] / [500]. *)
  Alcotest.(check (array int)) "buckets" [| 2; 1; 1 |] hs.Metrics.s_buckets;
  (* Re-registering the same (family, labels) returns the same cell. *)
  let c' =
    Metrics.counter reg ~labels:[ ("a", "1"); ("b", "2") ] "c"
  in
  Metrics.inc c';
  Alcotest.(check int) "same cell" 43
    (List.find (fun s -> s.Metrics.s_family = "c") (Metrics.snapshot reg))
      .Metrics.s_value

let fill_a reg =
  Metrics.inc ~n:5 (Metrics.counter reg ~labels:[ ("x", "1") ] "m");
  Metrics.set (Metrics.gauge reg "peak") 10;
  Metrics.observe (Metrics.histogram reg ~buckets:[| 10 |] "lat") 3

let fill_b reg =
  Metrics.inc ~n:7 (Metrics.counter reg ~labels:[ ("x", "1") ] "m");
  Metrics.inc ~n:2 (Metrics.counter reg ~labels:[ ("x", "2") ] "m");
  Metrics.set (Metrics.gauge reg "peak") 4;
  Metrics.observe (Metrics.histogram reg ~buckets:[| 10 |] "lat") 30

let test_merge_deterministic () =
  let ra = Metrics.create () and rb = Metrics.create () in
  fill_a ra;
  fill_b rb;
  let a = Metrics.snapshot ra and b = Metrics.snapshot rb in
  let ab = Metrics.merge a b and ba = Metrics.merge b a in
  Alcotest.(check string) "merge is commutative (rendered bytes)"
    (Metrics.to_prometheus ab) (Metrics.to_prometheus ba);
  (* The merge must equal filling one registry with both shard's
     increments: sums for counters/histograms, max for gauges. *)
  let whole = Metrics.create () in
  fill_a whole;
  fill_b whole;
  Alcotest.(check string) "merge == serial fill"
    (Metrics.to_prometheus (Metrics.snapshot whole))
    (Metrics.to_prometheus ab);
  (* absorb round-trips a snapshot into a registry. *)
  let rt = Metrics.create () in
  Metrics.absorb rt ab;
  Alcotest.(check string) "absorb round-trip"
    (Metrics.to_prometheus ab)
    (Metrics.to_prometheus (Metrics.snapshot rt))

let test_prometheus_format () =
  let reg = Metrics.create () in
  fill_a reg;
  Metrics.inc
    (Metrics.counter reg ~labels:[ ("odd", "a\\b\"c\nd") ] "esc_total");
  let text = Metrics.to_prometheus (Metrics.snapshot reg) in
  let lines = String.split_on_char '\n' text in
  List.iter
    (fun l ->
      if l <> "" && l.[0] <> '#' then begin
        (* every sample line is "name[{labels}] <integer>" *)
        match String.rindex_opt l ' ' with
        | None -> Alcotest.failf "unparseable sample line: %s" l
        | Some i ->
            let v = String.sub l (i + 1) (String.length l - i - 1) in
            Alcotest.(check bool)
              (Printf.sprintf "integer value in %S" l)
              true
              (match int_of_string_opt v with Some _ -> true | None -> false)
      end)
    lines;
  Alcotest.(check bool) "HELP emitted" true
    (List.exists (fun l -> String.length l > 6 && String.sub l 0 6 = "# HELP") lines);
  (* label values escape backslash, quote and newline *)
  Alcotest.(check bool) "label escaping" true
    (List.exists
       (fun l ->
         String.length l > 9 && String.sub l 0 9 = "esc_total"
         && String.index_opt l '\n' = None)
       lines);
  (* histogram renders cumulative buckets with +Inf == _count *)
  Alcotest.(check bool) "+Inf bucket present" true
    (List.exists
       (fun l ->
         String.length l > 10
         && String.sub l 0 10 = "lat_bucket"
         && String.index_opt l 'I' <> None)
       lines)

let test_json_exporter_wellformed () =
  let reg = Metrics.create () in
  fill_a reg;
  fill_b reg;
  match Json.of_string (Metrics.to_json (Metrics.snapshot reg)) with
  | Json.List items ->
      Alcotest.(check bool) "non-empty" true (items <> []);
      List.iter
        (fun item ->
          match (Json.member "family" item, Json.member "value" item) with
          | Json.Str _, Json.Int _ -> ()
          | _ -> Alcotest.fail "metric item missing family/value")
        items
  | _ -> Alcotest.fail "metrics JSON did not parse as an array"

(* --- Chrome trace export --------------------------------------------- *)

let test_chrome_trace_wellformed () =
  let tr = Trace.create ~epoch:1000.0 () in
  Trace.name_process tr ~pid:0 "protean";
  Trace.name_thread tr ~pid:0 ~tid:1 "worker \"one\"";
  Trace.span tr ~cat:"cell" ~t0:1000.5 ~t1:1001.25 "milc|unsafe|P-core";
  Trace.instant tr ~cat:"supervisor" "spawn shard=0\nnewline";
  Trace.counter tr "cells" [ ("done", 3) ];
  let s = Trace.to_chrome_json tr in
  match Json.of_string s with
  | Json.List items ->
      Alcotest.(check int) "all events exported" 5 (List.length items);
      let phases =
        List.map
          (fun e ->
            match Json.member "ph" e with
            | Json.Str p -> p
            | _ -> Alcotest.fail "event without ph")
          items
      in
      Alcotest.(check (list string))
        "phases in record order"
        [ "M"; "M"; "X"; "i"; "C" ]
        phases;
      List.iter
        (fun e ->
          match Json.member "name" e with
          | Json.Str _ -> ()
          | _ -> Alcotest.fail "event without name")
        items;
      (* the span's microsecond arithmetic: 0.75s duration, 0.5s start *)
      let span = List.nth items 2 in
      Alcotest.(check bool) "span ts/dur" true
        (Json.member "ts" span = Json.Int 500_000
        && Json.member "dur" span = Json.Int 750_000)
  | _ -> Alcotest.fail "trace did not parse as a JSON array"

(* --- flamegraph folding ---------------------------------------------- *)

let test_flame_folding () =
  let fl = Flame.create () in
  Flame.add fl ~frames:[ "unsafe"; "milc"; "ARCH"; "kernel" ] 10;
  Flame.add fl ~frames:[ "unsafe"; "milc"; "ARCH"; "kernel" ] 5;
  Flame.add fl ~frames:[ "unsafe"; "milc"; "(no-commit)" ] 2;
  (* separators and whitespace in frames must be neutralized *)
  Flame.add fl ~frames:[ "un;safe"; "fn with space" ] 1;
  Flame.add fl ~frames:[ "dropme" ] 0;
  Alcotest.(check int) "total" 18 (Flame.total fl);
  let folded = Flame.to_folded fl in
  Alcotest.(check string) "folded, sorted, cleaned"
    "un_safe;fn_with_space 1\n\
     unsafe;milc;(no-commit) 2\n\
     unsafe;milc;ARCH;kernel 15\n"
    folded;
  let fl2 = Flame.of_list (Flame.to_list fl) in
  Flame.merge ~into:fl2 fl;
  Alcotest.(check int) "merge doubles" 36 (Flame.total fl2)

(* --- structured logger ----------------------------------------------- *)

let with_captured_log f =
  let lines = ref [] in
  Tlog.set_sink (fun l -> lines := l :: !lines);
  Fun.protect
    ~finally:(fun () ->
      Tlog.reset_sink ();
      Tlog.set_json false;
      Tlog.set_level Tlog.Info)
    (fun () ->
      f ();
      List.rev !lines)

let test_log_levels_and_json () =
  let lines =
    with_captured_log (fun () ->
        Tlog.debug ~src:"t" "suppressed at info";
        Tlog.warn ~src:"t" ~fields:[ ("k", "v") ] "be%s" "ware";
        Tlog.set_json true;
        Tlog.error ~src:"t" ~fields:[ ("path", "a\"b") ] "broke")
  in
  match lines with
  | [ text; json ] ->
      Alcotest.(check string) "text rendering"
        "[warn] t: beware (k=v)" text;
      (match Json.of_string json with
      | Json.Obj _ as j ->
          Alcotest.(check bool) "json fields" true
            (Json.member "level" j = Json.Str "error"
            && Json.member "src" j = Json.Str "t"
            && Json.member "msg" j = Json.Str "broke"
            && Json.member "path" j = Json.Str "a\"b")
      | _ -> Alcotest.fail "json log line did not parse as an object")
  | ls -> Alcotest.failf "expected 2 lines, got %d" (List.length ls)

(* Harness diagnostics route through the logger, so one sink captures
   lines from every domain/worker (satellite: structured [log_line]). *)
let test_log_line_routed () =
  let lines =
    with_captured_log (fun () -> E.log_line "cell %s took %dms" "x" 3)
  in
  Alcotest.(check (list string))
    "log_line routes through Telemetry.Log"
    [ "[info] harness: cell x took 3ms" ]
    lines

(* --- profiler detach flush (hooks [on_remove]) ----------------------- *)

let test_on_remove_finalizer () =
  let bus : unit Hooks.t = Hooks.create () in
  let flushed = ref (-1) in
  Hooks.subscribe bus ~name:"p"
    ~kinds:[ Hooks.k_cycle_end ]
    ~on_remove:(fun () ->
      (* the finalizer observes the bus *after* removal: interest bits
         are already clear, so a flush cannot re-enter the handler *)
      flushed := List.length (Hooks.subscribers bus))
    (fun () _ -> ());
  Alcotest.(check bool) "wanted before" true (Hooks.wanted bus Hooks.k_cycle_end);
  Hooks.unsubscribe bus "p";
  Alcotest.(check int) "finalizer ran after removal" 0 !flushed;
  Alcotest.(check bool) "interest cleared" false
    (Hooks.wanted bus Hooks.k_cycle_end);
  (* unsubscribing a name with no on_remove (or absent) is a no-op *)
  Hooks.unsubscribe bus "p"

let tiny =
  {
    Suite.name = "tiny";
    suite = "test";
    klass = Protean_isa.Program.Arch;
    kind = Suite.Single (fun () -> Helpers.store_load_sum 8);
  }

let stats_cycles (r : E.run_result) =
  List.fold_left (fun acc (s : Stats.t) -> acc + s.Stats.cycles) 0 r.E.stats

let with_collection f =
  E.collect_policy_metrics := true;
  E.collect_flame := true;
  Fun.protect
    ~finally:(fun () ->
      E.collect_policy_metrics := false;
      E.collect_flame := false)
    f

(* A profiler detached mid-run (here: at the natural end of the run,
   through [Profile.detach]'s [on_remove] flush) must account for every
   cycle: folded weights sum exactly to the run's cycle count. *)
let test_flame_totals_equal_cycles () =
  with_collection (fun () ->
      let session = E.create_session () in
      let r = E.run session (E.spec tiny E.cfg_stt) in
      let flame_total =
        List.fold_left (fun acc (_, n) -> acc + n) 0 r.E.flame
      in
      Alcotest.(check bool) "flame non-empty" true (r.E.flame <> []);
      Alcotest.(check int) "flame total == cycles" (stats_cycles r)
        flame_total)

let test_detach_flushes_partial_samples () =
  let profiled = ref None in
  let state = ref None in
  let program = Helpers.store_load_sum 8 in
  let policy = Protean_defense.Defense.unsafe.Protean_defense.Defense.make () in
  let r =
    Pipeline.run Config.test_core policy program ~overlays:[]
      ~on_start:(fun t ->
        let p = Profile.create () in
        Profile.attach ~sink:(fun snap -> profiled := Some snap) p t;
        state := Some t)
  in
  (* mid-run detach from the caller's perspective: the run is over but
     the profiler was never asked to report — unsubscribing must flush *)
  Alcotest.(check bool) "no flush before detach" true (!profiled = None);
  (match !state with Some t -> Profile.detach t | None -> ());
  match !profiled with
  | None -> Alcotest.fail "detach did not flush the profiler"
  | Some snap ->
      let attributed =
        List.fold_left (fun acc (_, n) -> acc + n) 0 snap.Profile.snap_flame
        + snap.Profile.snap_residual
      in
      Alcotest.(check int) "flush accounts for every cycle"
        r.Pipeline.stats.Stats.cycles attributed

(* --- collection switches off => telemetry is free -------------------- *)

let test_telemetry_off_is_free () =
  let session = E.create_session () in
  let r = E.run session (E.spec tiny E.cfg_stt) in
  Alcotest.(check bool) "no policy counters collected" true
    (r.E.policy_metrics = []);
  Alcotest.(check bool) "no flame collected" true (r.E.flame = [])

(* --- end-to-end determinism: serial vs -j 4 vs frame round-trip ------ *)

let grid session =
  List.iter
    (fun cfg -> ignore (E.run session (E.spec tiny cfg)))
    [ E.cfg_unsafe; E.cfg_stt; E.cfg_spt; E.cfg_spt_sb ]

let render session = Metrics.to_prometheus (Metrics.snapshot (Report.of_session session))

let test_session_metrics_deterministic () =
  with_collection (fun () ->
      let serial = E.create_session () in
      grid serial;
      let parallel = E.create_session () in
      E.prewarm ~jobs:4 parallel (fun () -> grid parallel);
      Alcotest.(check string) "serial == -j 4 (rendered bytes)"
        (render serial) (render parallel);
      (* The shard path: every cell's result crosses the frame protocol
         as JSON.  Round-tripping the whole cache must preserve the
         rendered registry and the folded flamegraph byte-for-byte. *)
      let shipped = E.create_session () in
      Hashtbl.iter
        (fun key r ->
          Hashtbl.replace shipped.E.cache key
            (Supervisor.Grid.result_of_json (Supervisor.Grid.result_to_json r)))
        serial.E.cache;
      Alcotest.(check string) "frame round-trip preserves metrics"
        (render serial) (render shipped);
      Alcotest.(check string) "frame round-trip preserves flame"
        (Flame.to_folded (Report.flame_of_session serial))
        (Flame.to_folded (Report.flame_of_session shipped));
      (* ≥ the acceptance floor of distinct families for a real grid *)
      let fams = Metrics.families (Metrics.snapshot (Report.of_session serial)) in
      Alcotest.(check bool)
        (Printf.sprintf "family count sane (%d)" (List.length fams))
        true
        (List.length fams >= 15))

(* --- speculation-window ledger: grid determinism --------------------- *)

(* With window collection on, the ledger's summary counters ride the
   run_result (and the frame codec's "wn" member) exactly like the
   policy metrics: serial, -j 4 and the shard round-trip must render the
   same registry bytes, window families included. *)
let test_window_counters_deterministic () =
  let saved = !E.collect_window in
  E.collect_window := true;
  Fun.protect
    ~finally:(fun () -> E.collect_window := saved)
    (fun () ->
      let serial = E.create_session () in
      grid serial;
      let parallel = E.create_session () in
      E.prewarm ~jobs:4 parallel (fun () -> grid parallel);
      Alcotest.(check string) "serial == -j 4 (rendered bytes)"
        (render serial) (render parallel);
      let shipped = E.create_session () in
      Hashtbl.iter
        (fun key r ->
          Hashtbl.replace shipped.E.cache key
            (Supervisor.Grid.result_of_json (Supervisor.Grid.result_to_json r)))
        serial.E.cache;
      Alcotest.(check string) "frame round-trip preserves window counters"
        (render serial) (render shipped);
      let fams =
        Metrics.families (Metrics.snapshot (Report.of_session serial))
      in
      Alcotest.(check bool) "window family exported" true
        (List.mem "protean_window_opened_total" fams);
      (* ... and the counters really came from the runs *)
      Hashtbl.iter
        (fun key (r : E.run_result) ->
          Alcotest.(check bool) (key ^ " saw windows") true
            (Twindow.counter "windows_opened" r.E.window > 0))
        serial.E.cache)

(* --- leakage attribution: deterministic across drivers --------------- *)

(* Every program of a G_gadget campaign is the known v1
   bounds-check-bypass gadget, so the unsafe baseline must violate and
   the attribution must name the probe transmitter with family v1 —
   identically from the serial driver, the -j 4 driver, and the
   supervised-style recovery (per-shard outcomes merged in cell order,
   witness replayed from the merged example's seed, exactly what
   protean-fuzz does under --shards). *)
let gadget_campaign =
  {
    Fuzz.default_campaign with
    Fuzz.programs = 4;
    inputs_per_program = 2;
    seed = 11;
    gen_klass = Gen.G_gadget;
    mode_of = Fuzz.arch_seq;
  }

let supervised_style_attribution campaign d =
  let ids = List.init campaign.Fuzz.programs Fun.id in
  let shard k = List.filter (fun i -> i mod 2 = k) ids in
  let per_cell =
    List.concat_map
      (fun k ->
        List.map
          (fun i ->
            let program = Fuzz.generate_program campaign i in
            (i, Fuzz.test_program campaign d ~index:i ~program))
          (shard k))
      [ 0; 1 ]
  in
  let out = Fuzz.fresh_outcome () in
  List.iter
    (fun (_, sub) -> Fuzz.merge_outcome ~into:out sub)
    (List.sort (fun (a, _) (b, _) -> compare a b) per_cell);
  match out.Fuzz.example with
  | None -> None
  | Some (pseed, _) ->
      let index = (pseed - campaign.Fuzz.seed) / 7919 in
      let w = ref None in
      let program = Fuzz.generate_program campaign index in
      (try ignore (Fuzz.test_program ~witness:w campaign d ~index ~program)
       with _ -> ());
      Option.bind !w (Fuzz.attribute_witness campaign d)

let test_attribution_deterministic () =
  let campaign = gadget_campaign in
  let d = Defense.unsafe in
  let serial = Fuzz.run_resilient ~shrink:false campaign d in
  let par = Parallel.fuzz_run_resilient ~jobs:4 ~shrink:false campaign d in
  let sharded = supervised_style_attribution campaign d in
  match serial.Fuzz.r_attribution with
  | None -> Alcotest.fail "gadget campaign produced no attribution"
  | Some a ->
      Alcotest.(check string) "gadget family" "v1" a.Twindow.at_family;
      Alcotest.(check bool) "transmitter pc named" true
        (a.Twindow.at_xmit_pc >= 0);
      Alcotest.(check bool) "source access pc named" true
        (a.Twindow.at_src_pc >= 0);
      Alcotest.(check bool) "window identified" true
        (a.Twindow.at_window_id >= 0 && a.Twindow.at_window_depth >= 0);
      Alcotest.(check bool) "serial == -j 4" true
        (par.Fuzz.r_attribution = Some a);
      Alcotest.(check bool) "serial == shard-style recovery" true
        (sharded = Some a)

(* --- the counter schema ------------------------------------------------ *)

(* A record whose every [Stats.fields] row holds its own value (row i
   holds i + 1), plus a per-port array. *)
let distinct_stats () =
  let s = Stats.create () in
  List.iteri (fun i (f : Stats.field) -> f.Stats.set s (i + 1)) Stats.fields;
  Stats.set_port_busy s [| 7; 0; 9 |];
  s

(* Adding a [Stats.t] field without a row fails here: the record has
   one slot per row plus [port_busy], and after [distinct_stats] every
   integer slot holds exactly one row's value. *)
let test_schema_covers_stats () =
  let n = List.length Stats.fields in
  Alcotest.(check int) "one row per scalar, plus port_busy" (n + 1)
    (Obj.size (Obj.repr (Stats.create ())));
  let s = distinct_stats () in
  let r = Obj.repr s in
  let slots =
    List.filter_map
      (fun i ->
        let v = Obj.field r i in
        if Obj.is_int v then Some (Obj.obj v : int) else None)
      (List.init (Obj.size r) Fun.id)
  in
  Alcotest.(check (list int)) "each slot written by exactly one row"
    (List.init n (fun i -> i + 1))
    (List.sort compare slots);
  List.iteri
    (fun i (f : Stats.field) ->
      Alcotest.(check int) ("get reads what set wrote: " ^ f.Stats.name) (i + 1)
        (f.Stats.get s))
    Stats.fields;
  let names = List.map (fun (f : Stats.field) -> f.Stats.name) Stats.fields in
  Alcotest.(check int) "names are distinct" (n + 1)
    (List.length (List.sort_uniq compare (Stats.port_busy_name :: names)))

let test_stats_codec_roundtrip () =
  let s = distinct_stats () in
  let wire = Json.to_string (Supervisor.Grid.stats_to_json s) in
  Alcotest.(check bool) "every counter round-trips exactly" true
    (Supervisor.Grid.stats_of_json (Json.of_string wire) = s)

let test_stats_codec_by_name () =
  let s = distinct_stats () in
  let kvs =
    match Supervisor.Grid.stats_to_json s with
    | Json.Obj kvs -> kvs
    | _ -> Alcotest.fail "stats payload is not an object"
  in
  let decode kvs = Supervisor.Grid.stats_of_json (Json.Obj kvs) in
  Alcotest.(check bool) "reordered payload decodes to the same record" true
    (decode (List.rev kvs) = s);
  let rejected what kvs =
    match decode kvs with
    | _ -> Alcotest.failf "%s accepted" what
    | exception Json.Parse _ -> ()
  in
  rejected "a missing name" (List.filter (fun (k, _) -> k <> "skipped_cycles") kvs);
  rejected "a missing port array"
    (List.filter (fun (k, _) -> k <> Stats.port_busy_name) kvs);
  rejected "an unknown name" (("bogus_cycles", Json.Int 1) :: kvs);
  rejected "a duplicated name" (List.hd kvs :: kvs);
  match Supervisor.Grid.stats_of_json (Json.List [ Json.Int 1 ]) with
  | _ -> Alcotest.fail "a positional payload accepted"
  | exception Json.Parse _ -> ()

(* --- supervised grid checkpoints -------------------------------------- *)

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go k = k + n <= m && (String.sub s k n = sub || go (k + 1)) in
  go 0

let with_temp_dir f =
  let dir = Filename.temp_file "protean_grid_ck" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Unix.rmdir dir)
    (fun () -> f dir)

let with_switches ~pm ~wn f =
  E.collect_policy_metrics := pm;
  E.collect_window := wn;
  Fun.protect
    ~finally:(fun () ->
      E.collect_policy_metrics := false;
      E.collect_window := false)
    f

(* [grid] under [Grid.supervised] with checkpoints in [dir].  A dial-in
   pool nobody joins gives up at once and the in-process fill computes
   every cell, saving after each batch — so no process is spawned.
   Returns the session and the number of cells resumed. *)
let supervised_grid dir =
  let session = E.create_session () in
  let bus = Supervisor.create_bus () in
  let resumed = ref 0 in
  Supervisor.subscribe bus ~name:"resumed" (function
    | Supervisor.Checkpoint_loaded { cells } -> resumed := cells
    | _ -> ());
  let config =
    { Supervisor.default_config with Supervisor.checkpoint_dir = Some dir }
  in
  let pool =
    { Supervisor.default_pool_config with Supervisor.pl_accept_wall = 0.0 }
  in
  Supervisor.Grid.supervised ~bus ~config ~pool ~worker_argv:[||] session
    (fun () -> grid session);
  (session, !resumed)

let serial_grid () =
  let session = E.create_session () in
  grid session;
  session

(* A checkpoint written without exporters must not resume into a run
   that collects policy and window counters: its cells carry neither,
   so they are recomputed and the run renders what a fresh collecting
   run does.  A rerun with the same switches resumes every cell. *)
let test_checkpoint_identity_covers_collection () =
  with_temp_dir (fun dir ->
      let _, resumed = with_switches ~pm:false ~wn:false (fun () -> supervised_grid dir) in
      Alcotest.(check int) "fresh run resumed nothing" 0 resumed;
      with_switches ~pm:true ~wn:true (fun () ->
          let fresh = render (serial_grid ()) in
          let session, resumed = supervised_grid dir in
          Alcotest.(check int) "collecting run resumed nothing" 0 resumed;
          Alcotest.(check string) "collecting run == fresh run" fresh
            (render session);
          let fams = Metrics.families (Metrics.snapshot (Report.of_session session)) in
          List.iter
            (fun fam ->
              Alcotest.(check bool) (fam ^ " exported") true (List.mem fam fams))
            [ "protean_window_opened_total"; "protean_defense_transmitter_retirements_total" ];
          let session, resumed = supervised_grid dir in
          Alcotest.(check int) "same switches resume every cell" 4 resumed;
          Alcotest.(check string) "resumed run == fresh run" fresh
            (render session)))

(* A checkpoint entry whose stats lack a counter is recomputed with a
   warning naming its cell, and the run finishes with the output of an
   undamaged one. *)
let test_undecodable_checkpoint_recomputed () =
  with_temp_dir (fun dir ->
      let first, _ = supervised_grid dir in
      let file = Supervisor.Checkpoint.path dir 0 in
      let entries = Json.to_list (Json.of_string (In_channel.with_open_bin file In_channel.input_all)) in
      let damaged_key = Json.(to_str (member "key" (List.hd entries))) in
      let update key f = function
        | Json.Obj kvs ->
            Json.Obj (List.map (fun (k, v) -> (k, if k = key then f v else v)) kvs)
        | j -> j
      in
      (* Drop the last counter of every stats object of the first entry. *)
      let truncate = function
        | Json.Obj kvs -> Json.Obj (List.rev (List.tl (List.rev kvs)))
        | j -> j
      in
      let damage =
        update "r" (update "stats" (fun v -> Json.List (List.map truncate (Json.to_list v))))
      in
      Out_channel.with_open_bin file (fun oc ->
          output_string oc
            (Json.to_string (Json.List (damage (List.hd entries) :: List.tl entries))));
      let warned = ref [] in
      Tlog.set_sink (fun l -> warned := l :: !warned);
      let (again, resumed) = Fun.protect ~finally:Tlog.reset_sink (fun () -> supervised_grid dir) in
      Alcotest.(check int) "every entry loaded" 4 resumed;
      let session_key = List.hd (String.split_on_char '|' damaged_key) in
      Alcotest.(check bool) "the warning names the cell" true
        (List.exists
           (fun l -> contains ~sub:"undecodable" l && contains ~sub:session_key l)
           !warned);
      Alcotest.(check string) "output equals the undamaged run" (render first)
        (render again);
      Hashtbl.iter
        (fun key r ->
          Alcotest.(check bool) (key ^ " recomputed exactly") true
            (Hashtbl.find again.E.cache key = r))
        first.E.cache)

let tests =
  [
    Alcotest.test_case "registry basics" `Quick test_registry_basics;
    Alcotest.test_case "merge deterministic" `Quick test_merge_deterministic;
    Alcotest.test_case "prometheus format" `Quick test_prometheus_format;
    Alcotest.test_case "json exporter well-formed" `Quick
      test_json_exporter_wellformed;
    Alcotest.test_case "chrome trace well-formed" `Quick
      test_chrome_trace_wellformed;
    Alcotest.test_case "flame folding" `Quick test_flame_folding;
    Alcotest.test_case "log levels and json" `Quick test_log_levels_and_json;
    Alcotest.test_case "log_line routed through logger" `Quick
      test_log_line_routed;
    Alcotest.test_case "hooks on_remove finalizer" `Quick
      test_on_remove_finalizer;
    Alcotest.test_case "flame totals equal cycles" `Quick
      test_flame_totals_equal_cycles;
    Alcotest.test_case "detach flushes partial samples" `Quick
      test_detach_flushes_partial_samples;
    Alcotest.test_case "telemetry off is free" `Quick
      test_telemetry_off_is_free;
    Alcotest.test_case "session metrics deterministic" `Quick
      test_session_metrics_deterministic;
    Alcotest.test_case "window counters deterministic" `Quick
      test_window_counters_deterministic;
    Alcotest.test_case "attribution deterministic across drivers" `Quick
      test_attribution_deterministic;
    Alcotest.test_case "counter schema covers every Stats field" `Quick
      test_schema_covers_stats;
    Alcotest.test_case "stats codec round-trips every counter" `Quick
      test_stats_codec_roundtrip;
    Alcotest.test_case "stats codec matches counters by name" `Quick
      test_stats_codec_by_name;
    Alcotest.test_case "grid checkpoint identity covers collection" `Quick
      test_checkpoint_identity_covers_collection;
    Alcotest.test_case "undecodable checkpoint payload is recomputed" `Quick
      test_undecodable_checkpoint_recomputed;
  ]
