(* What protean-tables, protean-sim and protean-fuzz share on the
   command line: the flags all three declare with one meaning, their
   start-up effects, and the supervisor wiring behind --shards and
   --listen.  Flags whose meaning differs between the binaries
   (--core-width, --check-certs, the fault injectors, the shard
   deadlines, --checkpoint-dir) stay with their binary. *)

open Cmdliner
module E = Protean_harness.Experiment
module Parallel = Protean_harness.Parallel
module Report = Protean_harness.Report
module Shard = Protean_harness.Shard
module Supervisor = Protean_harness.Supervisor
module Http_listener = Protean_telemetry.Http_listener

type t = {
  jobs : int; (* domains, at least 1 *)
  shards : int; (* at least 1 *)
  worker : bool;
  listen : string option;
  connect : string option;
  token : string;
  metrics_listen : string option;
  tele : Report.config;
}

(* Serving cells to a supervisor (spawned with --worker, or dialing in
   with --connect) rather than running one. *)
let is_worker t = t.worker || t.connect <> None

(* Fanning cells out to spawned or dial-in workers. *)
let supervised t = t.shards > 1 || t.listen <> None

let path_opt name doc =
  Arg.(value & opt (some string) None & info [ name ] ~docv:"PATH" ~doc)

let addr_opt name doc =
  Arg.(value & opt (some string) None & info [ name ] ~docv:"HOST:PORT" ~doc)

let jobs_arg =
  Arg.(value & opt int 1 & info [ "jobs"; "j" ] ~docv:"N"
         ~doc:"Simulation domains; 0 = all cores. Output is identical to \
               -j 1.")

let shards_arg =
  Arg.(value & opt int 1 & info [ "shards" ] ~docv:"N"
         ~doc:"Crash-isolated worker processes (composes with -j inside \
               each worker). Output is identical to the serial run; a \
               cell that crashes its worker on every attempt is isolated \
               by bisection and reported as a structured fault.")

let worker_arg =
  Arg.(value & flag & info [ "worker" ]
         ~doc:"Internal: serve cells over the supervisor frame protocol on \
               stdin/stdout. Spawned by --shards; not for interactive use.")

let listen_arg =
  addr_opt "listen"
    "Run as a TCP worker pool: bind $(docv) (port 0 picks one), lease work \
     to workers that dial in with --connect, and re-dispatch the lease of \
     any worker that disconnects or times out. --shards then sets the \
     number of leases. Output stays identical to the serial run."

let connect_arg =
  addr_opt "connect"
    "Serve cells as a remote worker: dial a --listen'ing supervisor, \
     authenticate with --campaign-token, and redial with backoff if the \
     connection drops."

let token_arg =
  Arg.(value & opt string "protean" & info [ "campaign-token" ] ~docv:"TOKEN"
         ~doc:"Shared secret for the worker-pool handshake; a dial-in \
               worker presenting a different token is rejected.")

let metrics_listen_arg =
  addr_opt "metrics-listen"
    "Serve live Prometheus metrics over HTTP at $(docv)/metrics for the \
     duration of the run (port 0 picks one; the bound port is logged)."

let metrics_out_arg =
  path_opt "metrics-out"
    "Write the run's metrics to $(docv): Prometheus text exposition, or \
     JSON when the path ends in .json. Simulation-derived families are \
     identical across -j and --shards."

let trace_out_arg =
  path_opt "trace-out"
    "Write a Chrome trace-event JSON timeline (cell spans, supervisor \
     lifecycle instants) to $(docv); load it in Perfetto or \
     chrome://tracing."

let flamegraph_out_arg =
  path_opt "flamegraph-out"
    "Write a collapsed-stack flamegraph to $(docv): simulated cycles by \
     defense, benchmark and function, or for a fuzzing campaign contract \
     tests by defense, contract and verdict. Render it with flamegraph.pl \
     or speedscope."

let attr_out_arg =
  path_opt "attr-out"
    "Write the speculation-window attribution as JSON to $(docv) and print \
     it rendered: the per-cell window ledger summary, or for a fuzzing \
     campaign the leaking transmitter, source access, trigger window and \
     gadget family."

let log_json_arg =
  Arg.(value & flag & info [ "log-json" ]
         ~doc:"Emit diagnostic log lines as structured JSON on stderr.")

let no_skip_ahead_arg =
  Arg.(value & flag & info [ "no-skip-ahead" ]
         ~doc:"Disable event-driven skip-ahead: the simulator steps every \
               idle cycle instead of jumping to the next event horizon. \
               Results are bit-identical either way; this is the escape \
               hatch (also PROTEAN_NO_SKIP_AHEAD=1).")

let no_shared_frontend_arg =
  Arg.(value & flag & info [ "no-shared-frontend" ]
         ~doc:"Disable shared-frontend batching: build, instrument and \
               decode every cell's workload independently instead of \
               reusing one frontend per (benchmark, pass) group. Results \
               are bit-identical either way; this is the escape hatch \
               (also PROTEAN_NO_SHARED_FRONTEND=1).")

let start jobs shards worker listen connect token metrics_listen metrics_out
    trace_out flamegraph_out attr_out log_json no_skip_ahead
    no_shared_frontend =
  Protean_ooo.Gc_tune.tune ();
  if log_json then Protean_telemetry.Log.set_json true;
  (* The escape hatches stay in the worker argv and are exported to the
     environment: spawned workers re-read it at startup, so the whole
     run uses one scheduling mode. *)
  if no_skip_ahead then begin
    Protean_ooo.Pipeline.set_skip_ahead false;
    Unix.putenv "PROTEAN_NO_SKIP_AHEAD" "1"
  end;
  if no_shared_frontend then begin
    E.share_frontend := false;
    Unix.putenv "PROTEAN_NO_SHARED_FRONTEND" "1"
  end;
  let t =
    {
      jobs = (if jobs = 0 then Parallel.default_jobs () else max 1 jobs);
      shards = max 1 shards;
      worker;
      listen;
      connect;
      token;
      metrics_listen;
      tele = { Report.metrics_out; trace_out; flamegraph_out; attr_out };
    }
  in
  (* Workers collect telemetry for their cells too, but only the parent
     opens the tracer and writes files. *)
  Report.enable ~worker:(is_worker t) t.tele;
  t

(* The shared flags, with their start-up effects applied. *)
let term =
  Term.(
    const start $ jobs_arg $ shards_arg $ worker_arg $ listen_arg
    $ connect_arg $ token_arg $ metrics_listen_arg $ metrics_out_arg
    $ trace_out_arg $ flamegraph_out_arg $ attr_out_arg $ log_json_arg
    $ no_skip_ahead_arg $ no_shared_frontend_arg)

(* --worker / --connect: serve cells computed by [compute]. *)
let serve t ~compute =
  match t.connect with
  | None -> Shard.worker_main ~jobs:t.jobs ~compute ()
  | Some addr ->
      Shard.connect_worker ~jobs:t.jobs ~addr ~token:t.token ~compute ()

(* --metrics-listen: serve [body] at /metrics while [f] runs. *)
let with_metrics t ~src body f =
  let http =
    Option.bind t.metrics_listen (fun addr ->
        Report.listen_metrics ~src addr body)
  in
  Fun.protect
    ~finally:(fun () -> Option.iter Http_listener.close http)
    (fun () -> f http)

type wiring = {
  bus : Supervisor.bus;
  pool : Supervisor.pool_config option;
  http : Http_listener.t option;
  worker_argv : string array;
}

(* Flags a spawned worker must not see.  The worker reruns the same
   discovery over the rest of the argv, so any drift would change the
   cell enumeration.  The exporter flags are deliberately kept: workers
   flip their collection switches from them and cell telemetry rides
   home in result frames. *)
let supervisor_flags =
  [ "--shards"; "--listen"; "--metrics-listen"; "--campaign-token" ]

(* The bus (run log, plus lifecycle telemetry when anything exports
   it), the pool for --listen, and the argv of a spawned worker, minus
   [drop]: the binary's own supervisor-only flags. *)
let wiring t ?http ~drop () =
  let bus = Supervisor.create_bus () in
  Supervisor.subscribe bus ~name:"log" (Supervisor.logger ());
  if Report.wanted t.tele || t.metrics_listen <> None then
    Supervisor.subscribe bus ~name:"telemetry" (Report.supervisor_observer ());
  {
    bus;
    pool =
      Option.map
        (fun addr ->
          {
            Supervisor.default_pool_config with
            Supervisor.pl_listen = addr;
            pl_token = t.token;
          })
        t.listen;
    http;
    worker_argv =
      Supervisor.self_worker_argv ~drop:(supervisor_flags @ drop) ();
  }

(* Run [cells] under the supervisor, on dial-in workers for --listen and
   on spawned ones otherwise. *)
let dispatch w config ~fallback cells =
  match w.pool with
  | Some pool ->
      Supervisor.run_pool ~bus:w.bus ?http:w.http config ~pool ~fallback cells
  | None ->
      Supervisor.run ~bus:w.bus ?http:w.http config ~worker_argv:w.worker_argv
        ~fallback cells
