(* Dispatch-loop tests that hold for both worker sources: a result for a
   cell outside the sender's lease is corruption, never a result; a
   silent dial-in worker holding a lease trips the heartbeat deadline;
   and a worker pool resumes from checkpoints.  Workers are in-process
   (domains over pipes, or real dial-in loops on loopback). *)

module Supervisor = Protean_harness.Supervisor
module Shard = Protean_harness.Shard
module Json = Protean_harness.Shard.Json
open Test_supervisor

let has_prefix p s =
  String.length s >= String.length p && String.sub s 0 (String.length p) = p

(* Answer the work order with a bogus result for [foreign] — a cell of
   another shard's batch — then wait for the supervisor to hang up. *)
let foreign_result ~foreign in_r out_w =
  (match Shard.read_frame in_r with
  | Some (Shard.F_work _) ->
      Shard.write_frame out_w (Shard.F_result (foreign, Json.Str "bogus"))
  | _ -> ());
  ignore (Shard.read_frame in_r)

let test_spawned_foreign_result_rejected () =
  let bus = Supervisor.create_bus () in
  let events = record_events bus in
  let spawn ~shard ~attempt ~env_fault:_ =
    if shard = 0 && attempt = 1 then
      domain_transport ~misbehave:(foreign_result ~foreign:4) ~compute ()
    else if shard = 1 then
      (* Shard 1 (cells 3-5) answers late, so the bogus result for its
         cell 4 arrives first. *)
      domain_transport
        ~misbehave:(fun in_r out_w ->
          Unix.sleepf 0.3;
          Shard.serve ~compute in_r out_w)
        ~compute ()
    else domain_transport ~compute ()
  in
  let cfg = { (config ()) with Supervisor.heartbeat = 2.0 } in
  let out =
    Supervisor.run ~bus ~spawn cfg ~worker_argv:[||] ~fallback:no_fallback
      (cells_of 6)
  in
  Alcotest.(check bool) "identical to serial despite the foreign result" true
    (out = expected_ok 6);
  Alcotest.(check bool) "the sender was killed for corruption" true
    (List.exists
       (function
         | Supervisor.Kill { shard = 0; reason } ->
             has_prefix "protocol corruption" reason
         | _ -> false)
       (events ()));
  Alcotest.(check bool) "its lease was requeued" true
    (List.exists
       (function Supervisor.Retry { shard = 0; _ } -> true | _ -> false)
       (events ()))

(* Run [f] on a domain with the pool's address once the pool announces
   its port; the returned join yields [f]'s result. *)
let on_listening bus ~name f =
  let domain = ref None in
  Supervisor.subscribe bus ~name (function
    | Supervisor.Listening { port; _ } ->
        let addr = Printf.sprintf "127.0.0.1:%d" port in
        domain := Some (Domain.spawn (fun () -> f addr))
    | _ -> ());
  fun () -> Option.map Domain.join !domain

(* A real dial-in worker that connects [delay] seconds after the pool
   starts listening; the join says whether it exited cleanly. *)
let late_worker ?(compute = compute) bus ~delay =
  let join =
    on_listening bus ~name:"late" (fun addr ->
        Unix.sleepf delay;
        match
          Shard.connect_worker ~reconnect:8 ~backoff:0.05 ~addr ~token:"protean"
            ~compute ()
        with
        | () -> true
        | exception _ -> false)
  in
  fun () ->
    let r = join () in
    Protean_telemetry.Log.reset_sink ();
    r = Some true

let hello =
  Shard.F_hello { h_version = Shard.protocol_version; h_token = "protean" }

(* Read frames until the supervisor closes the connection; hang up on
   any work order. *)
let rec refuse_work sock =
  match Shard.read_frame sock with
  | Some (Shard.F_work _) -> ()
  | Some _ -> refuse_work sock
  | None | (exception _) -> ()

(* The handshake and a result in one segment: the result reaches the
   supervisor while the connection holds no lease at all. *)
let test_pool_result_without_lease_rejected () =
  let bus = Supervisor.create_bus () in
  let events = record_events bus in
  let raw =
    on_listening bus ~name:"raw" (fun addr ->
        let sock = Shard.dial addr in
        let b =
          Bytes.cat (Shard.encode_frame hello)
            (Shard.encode_frame (Shard.F_result (0, Json.Str "bogus")))
        in
        ignore (Unix.write sock b 0 (Bytes.length b));
        refuse_work sock;
        Unix.close sock)
  in
  let join = late_worker bus ~delay:0.3 in
  let out =
    Supervisor.run_pool ~bus (config ~shards:1 ()) ~pool:(pool_config ())
      ~fallback:no_fallback (cells_of 3)
  in
  ignore (raw ());
  Alcotest.(check bool) "real worker exits cleanly" true (join ());
  Alcotest.(check bool) "identical to serial despite the unleased result" true
    (out = expected_ok 3);
  Alcotest.(check bool) "the sender was dropped for corruption" true
    (List.exists
       (function
         | Supervisor.Worker_disconnected { reason; _ } ->
             has_prefix "protocol corruption" reason
         | _ -> false)
       (events ()))

(* A dial-in worker that takes a lease and falls silent is dropped at
   the heartbeat deadline, and the lease goes to another worker. *)
let test_pool_silent_worker_deadline () =
  let bus = Supervisor.create_bus () in
  let events = record_events bus in
  let silent =
    on_listening bus ~name:"silent" (fun addr ->
        let sock = Shard.dial addr in
        Shard.write_frame sock hello;
        ignore (Shard.read_frame sock);
        (* Take the lease, then say nothing until dropped. *)
        (match Shard.read_frame sock with
        | Some (Shard.F_work _) -> ignore (Shard.read_frame sock)
        | _ -> ()
        | exception _ -> ());
        Unix.close sock)
  in
  let join = late_worker bus ~delay:0.5 in
  let cfg = { (config ~shards:1 ()) with Supervisor.heartbeat = 0.3 } in
  let out =
    Supervisor.run_pool ~bus cfg ~pool:(pool_config ()) ~fallback:no_fallback
      (cells_of 3)
  in
  ignore (silent ());
  Alcotest.(check bool) "real worker exits cleanly" true (join ());
  Alcotest.(check bool) "identical to serial despite the stall" true
    (out = expected_ok 3);
  Alcotest.(check bool) "disconnect cites the heartbeat deadline" true
    (List.exists
       (function
         | Supervisor.Worker_disconnected { reason; _ } ->
             has_prefix "heartbeat deadline" reason
         | _ -> false)
       (events ()));
  Alcotest.(check int) "the lease was granted twice" 2
    (List.length
       (List.filter
          (function Supervisor.Lease_granted _ -> true | _ -> false)
          (events ())))

(* Checkpoint resume through the worker pool: persisted cells load, and
   only the remainder is leased. *)
let test_pool_checkpoint_resume () =
  with_temp_dir (fun dir ->
      Supervisor.Checkpoint.save dir 0
        [ (0, "k0", compute "k0"); (1, "k1", compute "k1") ];
      let bus = Supervisor.create_bus () in
      let events = record_events bus in
      let dispatched = ref [] in
      let join =
        late_worker bus ~delay:0.0 ~compute:(fun key ->
            dispatched := key :: !dispatched;
            compute key)
      in
      let cfg =
        { (config ~shards:1 ()) with Supervisor.checkpoint_dir = Some dir }
      in
      let out =
        Supervisor.run_pool ~bus cfg ~pool:(pool_config ())
          ~fallback:no_fallback (cells_of 4)
      in
      Alcotest.(check bool) "worker exits cleanly" true (join ());
      Alcotest.(check bool) "merged output complete" true (out = expected_ok 4);
      Alcotest.(check (list string)) "only the remainder was leased"
        [ "k2"; "k3" ]
        (List.sort compare !dispatched);
      Alcotest.(check bool) "resume event emitted" true
        (List.exists
           (function
             | Supervisor.Checkpoint_loaded { cells = 2 } -> true | _ -> false)
           (events ())))

let tests =
  [
    Alcotest.test_case "spawned worker's result outside its lease rejected"
      `Quick test_spawned_foreign_result_rejected;
    Alcotest.test_case "dial-in result without a lease rejected" `Quick
      test_pool_result_without_lease_rejected;
    Alcotest.test_case "silent dial-in worker dropped at the heartbeat" `Quick
      test_pool_silent_worker_deadline;
    Alcotest.test_case "tcp pool resumes from checkpoints" `Quick
      test_pool_checkpoint_resume;
  ]
