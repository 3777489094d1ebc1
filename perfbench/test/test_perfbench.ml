(* Tests for the benchmark's own code: order statistics on known
   vectors, metric-name validation, and every output check firing on a
   deliberately corrupted copy of the committed expectations.  Runs
   from the build root, where perfbench/expected/ is copied. *)

module Stats = Perfbench.Stats
module Metric = Perfbench.Metric
module Checks = Perfbench.Checks
module Spans = Perfbench.Spans
module Work = Perfbench.Work
module E = Protean_harness.Experiment
module Fuzz = Protean_amulet.Fuzz
module Ostats = Protean_ooo.Stats

let close = Alcotest.float 1e-12

(* --- statistics ------------------------------------------------------ *)

let test_median () =
  Alcotest.check close "odd" 2. (Stats.median [ 3.; 1.; 2. ]);
  Alcotest.check close "even" 2.5 (Stats.median [ 4.; 1.; 3.; 2. ]);
  Alcotest.check close "single" 7. (Stats.median [ 7. ])

let test_percentile () =
  let xs = List.init 11 (fun i -> float_of_int (i + 1)) in
  Alcotest.check close "p0 is the minimum" 1. (Stats.percentile 0. xs);
  Alcotest.check close "p100 is the maximum" 11. (Stats.percentile 100. xs);
  Alcotest.check close "p90 of 1..11" 10. (Stats.percentile 90. xs);
  Alcotest.check close "interpolated" 1.5 (Stats.percentile 25. [ 1.; 3. ]);
  Alcotest.check_raises "no samples" (Invalid_argument "Stats.percentile: no samples")
    (fun () -> ignore (Stats.percentile 50. []))

let test_iqr () =
  let xs = List.init 9 (fun i -> float_of_int (i + 1)) in
  Alcotest.check close "1..9" 4. (Stats.iqr xs);
  Alcotest.check close "constant" 0. (Stats.iqr [ 5.; 5.; 5. ]);
  let tail = Alcotest.(check (option (float 1e-12))) in
  tail "tail below 11 samples" None (Stats.tail_percentile 10);
  tail "tail of 11 is the minimum" (Some 0.) (Stats.tail_percentile 11);
  tail "tail of 21" (Some 50.) (Stats.tail_percentile 21)

(* --- metric names ---------------------------------------------------- *)

let test_names () =
  List.iter
    (fun n -> Alcotest.(check bool) ("accepts " ^ n) true (Metric.valid_name n))
    [ "run_s"; "ooo.loop_s"; "defense.spt-sb.host_ns_per_cycle"; "9lives" ];
  List.iter
    (fun n -> Alcotest.(check bool) (Printf.sprintf "rejects %S" n) false (Metric.valid_name n))
    [ ""; "run s"; "a/b"; "_lead"; ".lead"; "quo\"te"; "caf\xc3\xa9"; "x{y}"; String.make 65 'a' ];
  Alcotest.check_raises "make rejects" (Invalid_argument "Metric.make: bad name a b") (fun () ->
      ignore (Metric.make "a b" "s" 1.));
  Alcotest.check_raises "make rejects nan" (Invalid_argument "Metric.make: x is not finite")
    (fun () -> ignore (Metric.make "x" "s" nan));
  Alcotest.(check string) "json" "{\"run_s\": {\"value\": 0.1, \"unit\": \"s\"}}"
    (Metric.json_object [ Metric.make "run_s" "s" 0.1 ])

(* --- spans ----------------------------------------------------------- *)

let test_self_time () =
  Alcotest.check close "overlapping children counted once" 4.
    (Spans.covered ~lo:0. ~hi:10. [ (1., 3.); (2., 4.); (9., 12.) ]);
  let sp = Spans.create () in
  Spans.with_span sp ~layer:"outer" "outer" (fun id ->
      Spans.with_span sp ~parent:id ~layer:"inner" "inner" (fun _ -> Unix.sleepf 0.02));
  let self = Spans.take_self_times sp in
  Alcotest.(check bool) "inner has its time" true (List.assoc "inner" self >= 0.02);
  Alcotest.(check bool) "outer excludes it" true (List.assoc "outer" self < 0.02)

(* --- output checks fire on corrupted expectations -------------------- *)

let corrupt_first (kvs : (string * string) list) =
  match kvs with (k, v) :: rest -> (k, v ^ "1") :: rest | [] -> Alcotest.fail "empty expectation"

(* A session holding exactly the committed per-cell cycles. *)
let session_of cells =
  let session = E.create_session () in
  E.install session
    (List.map
       (fun (k, v) ->
         match String.split_on_char ' ' v with
         | [ measured; core ] ->
             let st = Ostats.create () in
             st.Ostats.cycles <- int_of_string core;
             (k, { E.faulted_result with E.cycles = float_of_string measured; stats = [ st ] })
         | _ -> Alcotest.fail ("bad cells.tsv line " ^ k))
       cells);
  session

let test_tables_checks () =
  let x = Work.load_tables () in
  let check ?(session = session_of x.Work.cells) ~table ~cells text =
    (Work.check_tables ~table ~cells session text).Work.failures
  in
  Alcotest.(check (list string)) "committed outputs pass" []
    (check ~table:x.Work.table ~cells:x.Work.cells x.Work.table);
  Alcotest.(check int) "corrupted cycle expectation fires" 1
    (List.length (check ~table:x.Work.table ~cells:(corrupt_first x.Work.cells) x.Work.table));
  Alcotest.(check int) "corrupted table expectation fires" 1
    (List.length (check ~table:(x.Work.table ^ "!") ~cells:x.Work.cells x.Work.table));
  let faulted = session_of x.Work.cells in
  E.install faulted [ (fst (List.hd x.Work.cells), E.faulted_result) ];
  Alcotest.(check int) "faulted cell fires" 1
    (List.length (check ~session:faulted ~table:x.Work.table ~cells:x.Work.cells x.Work.table))

let test_sharded_checks () =
  let expected = List.assoc "metrics" (Work.load_sharded ()).Work.files in
  let exported =
    expected ^ "protean_supervisor_spawns_total 2\nprotean_build_info{rev=\"x\"} 1\n"
  in
  let sim = Checks.drop_families Work.runtime_families exported in
  Alcotest.(check (list string)) "runtime families excluded" []
    (Checks.text ~what:"metrics" ~expected ~actual:sim);
  let corrupted =
    String.concat "\n"
      (List.map
         (fun l ->
           if Checks.contains ~sub:"protean_pipeline_cycles_total{" l then l ^ "0" else l)
         (Checks.lines expected))
  in
  Alcotest.(check int) "corrupted family fires" 1
    (List.length (Checks.text ~what:"metrics" ~expected:corrupted ~actual:sim))

let test_fuzz_checks () =
  let x = Work.load_fuzz () in
  let o = Fuzz.fresh_outcome () in
  let get k = int_of_string (List.assoc k x.Work.counts) in
  o.Fuzz.tests <- get "tests";
  o.Fuzz.skipped <- get "skipped_pairs";
  o.Fuzz.certs_checked <- get "certs_checked";
  o.Fuzz.cert_claims <- get "cert_claims";
  let failures x ~skipped_programs =
    (Work.check_fuzz x o ~completed:(get "programs_completed") ~skipped_programs).Work.failures
  in
  Alcotest.(check (list string)) "committed counts pass" [] (failures x ~skipped_programs:0);
  let corrupted = { x with Work.counts = corrupt_first x.Work.counts } in
  Alcotest.(check int) "corrupted count fires" 1
    (List.length (failures corrupted ~skipped_programs:0));
  Alcotest.(check bool) "skipped program fires" true (failures x ~skipped_programs:1 <> []);
  Alcotest.(check int) "corrupted replay expectation fires" 1
    (List.length
       (Checks.pairs ~what:"fuzz replay" ~expected:(corrupt_first x.Work.replay)
          ~actual:x.Work.replay))

let () =
  Alcotest.run "perfbench"
    [
      ( "stats",
        [
          Alcotest.test_case "median" `Quick test_median;
          Alcotest.test_case "percentile" `Quick test_percentile;
          Alcotest.test_case "iqr and tail" `Quick test_iqr;
        ] );
      ("metric", [ Alcotest.test_case "names" `Quick test_names ]);
      ("spans", [ Alcotest.test_case "self time" `Quick test_self_time ]);
      ( "checks",
        [
          Alcotest.test_case "tables" `Quick test_tables_checks;
          Alcotest.test_case "sharded exports" `Quick test_sharded_checks;
          Alcotest.test_case "fuzz counts" `Quick test_fuzz_checks;
        ] );
    ]
