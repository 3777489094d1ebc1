(* Crash-isolated shard supervisor.

   One dispatch loop leases batches of a deterministic cell list to
   worker slots speaking {!Shard}'s length-prefixed JSON frame
   protocol.  Slots come from one of two sources: [run] spawns a copy
   of the current CLI in [--worker] mode per lease (frames on
   stdin/stdout), and [run_pool] accepts workers that dial in over TCP
   and serve lease after lease.  The loop owns robustness end-to-end,
   whatever the source:

   - liveness: per-lease heartbeat deadlines (no frame for
     [heartbeat] seconds) and a wall-clock budget; an expired worker
     is killed or dropped and its *uncompleted* cells requeued —
     results streamed before that are kept;
   - retry: a failed lease (crash, kill, disconnect, protocol
     corruption, a result for a cell outside the lease) is requeued
     with exponential backoff;
   - bisection: a shard that keeps failing is split in half until the
     failure is isolated to a single cell, which is reported as a
     structured fault — in the style of [Pipeline.Sim_fault] — instead
     of crashing the run, while every other cell completes;
   - checkpointing: completed cells are persisted per origin shard in
     atomic (write-to-temp + rename) JSON files, merged
     deterministically by cell id, so a killed *supervisor* resumes and
     the merged output is byte-identical to a serial run;
   - degradation: when processes cannot be spawned (Windows,
     PROTEAN_NO_SPAWN=1, exec failure), or no dial-in worker takes a
     lease within the accept budget, the rest of the batch falls back
     to the in-process [fallback].

   Shard lifecycle (spawn / heartbeat / retry / bisect / kill / poison)
   is surfaced through the same observer pattern as the pipeline's hook
   bus ([Protean_ooo.Hooks]): typed events, subscribers in registration
   order, so run-log tooling needs no supervisor-code changes. *)

module Fault_inject = Protean_defense.Fault_inject
module Json = Shard.Json
module Log = Protean_telemetry.Log
module Http_listener = Protean_telemetry.Http_listener

(* ------------------------------------------------------------------ *)
(* Lifecycle event bus                                                 *)
(* ------------------------------------------------------------------ *)

type event =
  | Spawn of { shard : int; attempt : int; pid : int option; cells : int }
  | Heartbeat of { shard : int; cell : int }
  | Cell_done of { shard : int; cell : int }
  | Cell_fault of { shard : int; cell : int; reason : string }
  | Worker_log of { shard : int; line : string }
  | Worker_stderr of { shard : int; line : string }
  | Kill of { shard : int; reason : string }
  | Worker_exit of { shard : int; status : string; ok : bool }
  | Retry of { shard : int; attempt : int; delay : float }
  | Bisect of { shard : int; left : int; right : int }
  | Poisoned of { cell : int; key : string; attempts : int; reason : string }
  | Checkpoint_loaded of { cells : int }
  | Fallback of { reason : string }
  | Merged of { cells : int; faults : int }
  (* TCP worker-pool lifecycle ([run_pool]): *)
  | Listening of { addr : string; port : int }
  | Worker_connected of { worker : int; peer : string }
  | Worker_rejected of { peer : string; reason : string }
  | Lease_granted of { shard : int; worker : int; cells : int; attempt : int }
  | Worker_disconnected of { worker : int; reason : string }

type subscriber = { s_name : string; s_handler : event -> unit }
type bus = { mutable subs : subscriber array }

let create_bus () = { subs = [||] }

let subscribe bus ~name handler =
  bus.subs <- Array.append bus.subs [| { s_name = name; s_handler = handler } |]

let unsubscribe bus name =
  bus.subs <-
    Array.of_list
      (List.filter (fun s -> s.s_name <> name) (Array.to_list bus.subs))

let emit bus ev = Array.iter (fun s -> s.s_handler ev) bus.subs

let event_to_string = function
  | Spawn { shard; attempt; pid; cells } ->
      Printf.sprintf "shard %d: spawn attempt %d (%s) for %d cells" shard
        attempt
        (match pid with Some p -> "pid " ^ string_of_int p | None -> "in-proc")
        cells
  | Heartbeat { shard; cell } ->
      Printf.sprintf "shard %d: heartbeat at cell %d" shard cell
  | Cell_done { shard; cell } -> Printf.sprintf "shard %d: cell %d done" shard cell
  | Cell_fault { shard; cell; reason } ->
      Printf.sprintf "shard %d: cell %d faulted in-process: %s" shard cell reason
  | Worker_log { shard; line } -> Printf.sprintf "shard %d: %s" shard line
  | Worker_stderr { shard; line } ->
      Printf.sprintf "shard %d (stderr): %s" shard line
  | Kill { shard; reason } -> Printf.sprintf "shard %d: killed (%s)" shard reason
  | Worker_exit { shard; status; ok } ->
      Printf.sprintf "shard %d: exited %s (%s)" shard status
        (if ok then "ok" else "failed")
  | Retry { shard; attempt; delay } ->
      Printf.sprintf "shard %d: retry attempt %d after %.2fs backoff" shard
        attempt delay
  | Bisect { shard; left; right } ->
      Printf.sprintf "shard %d: bisected into %d + %d cells" shard left right
  | Poisoned { cell; key; attempts; reason } ->
      Printf.sprintf "cell %d poisoned after %d attempts (%s): %s" cell attempts
        key reason
  | Checkpoint_loaded { cells } ->
      Printf.sprintf "resumed %d cells from checkpoints" cells
  | Fallback { reason } -> Printf.sprintf "in-process fallback: %s" reason
  | Merged { cells; faults } ->
      Printf.sprintf "merged %d cells (%d faulted)" cells faults
  | Listening { addr; port } ->
      Printf.sprintf "worker pool listening on %s (port %d)" addr port
  | Worker_connected { worker; peer } ->
      Printf.sprintf "worker %d connected from %s" worker peer
  | Worker_rejected { peer; reason } ->
      Printf.sprintf "connection from %s rejected: %s" peer reason
  | Lease_granted { shard; worker; cells; attempt } ->
      Printf.sprintf "lease %d (attempt %d, %d cells) granted to worker %d"
        shard attempt cells worker
  | Worker_disconnected { worker; reason } ->
      Printf.sprintf "worker %d disconnected: %s" worker reason

(* Run-log subscriber: serialized through the experiment-layer line sink
   so supervisor lines never interleave with in-process fill output. *)
let logger ?(quiet_heartbeat = true) () =
  fun ev ->
    match ev with
    | Heartbeat _ when quiet_heartbeat -> ()
    | Cell_done _ -> ()
    | Worker_log { line; _ } -> Experiment.log_line "%s" line
    | Worker_stderr { shard; line } ->
        Experiment.log_line "[shard %d] %s" shard line
    | ev -> Experiment.log_line "[supervisor] %s" (event_to_string ev)

(* ------------------------------------------------------------------ *)
(* Configuration                                                       *)
(* ------------------------------------------------------------------ *)

type config = {
  shards : int;
  heartbeat : float; (* s without any frame before a worker is killed *)
  wall : float; (* s per spawn before a worker is killed *)
  max_attempts : int; (* failures of one shard before bisect/poison *)
  backoff : float; (* base retry delay, doubled per attempt *)
  checkpoint_dir : string option;
  inject : Fault_inject.worker_mode option;
}

let default_config =
  {
    shards = 2;
    heartbeat = 120.0;
    wall = 3600.0;
    max_attempts = 2;
    backoff = 0.25;
    checkpoint_dir = None;
    inject = None;
  }

(* Worker-pool mode ([run_pool]): instead of exec'ing local workers the
   supervisor listens on TCP and remote workers dial in, so a campaign
   spans machines.  [cfg.shards] then sets the number of initial
   *leases* (work batches), not processes.  Dial-in connections must
   present the campaign [token] and a matching protocol version before
   they are leased any work. *)
type pool_config = {
  pl_listen : string; (* HOST:PORT to bind; port 0 picks one *)
  pl_token : string; (* shared campaign secret for the handshake *)
  pl_accept_wall : float;
      (* s with work pending but no workers connected before the
         campaign degrades to the in-process fallback *)
}

let default_pool_config =
  { pl_listen = "127.0.0.1:0"; pl_token = "protean"; pl_accept_wall = 60.0 }

type outcome =
  | O_ok of Json.t
  | O_fault of { f_key : string; f_attempts : int; f_reason : string }
      (* the structured record a poisoned cell resolves to *)

(* ------------------------------------------------------------------ *)
(* Worker transports                                                   *)
(* ------------------------------------------------------------------ *)

(* The process-management half is abstracted so tests can drive the
   supervisor with in-process (domain-backed) workers while production
   uses fork/exec. *)
type transport = {
  t_pid : int option;
  t_read : Unix.file_descr; (* frames from the worker *)
  t_write : Unix.file_descr; (* frames to the worker *)
  t_err : Unix.file_descr option; (* the worker's raw stderr *)
  t_kill : unit -> unit;
  t_wait : unit -> string * bool; (* reap; (status text, clean exit) *)
}

(* OCaml's [Sys] signal numbers are its own encoding (negative for the
   portable set); name the ones workers actually die of. *)
let signal_name s =
  if s = Sys.sigkill then "SIGKILL"
  else if s = Sys.sigabrt then "SIGABRT"
  else if s = Sys.sigsegv then "SIGSEGV"
  else if s = Sys.sigterm then "SIGTERM"
  else if s = Sys.sigint then "SIGINT"
  else string_of_int s

let status_to_string = function
  | Unix.WEXITED c -> Printf.sprintf "exit %d" c
  | Unix.WSIGNALED s -> Printf.sprintf "signal %s" (signal_name s)
  | Unix.WSTOPPED s -> Printf.sprintf "stopped %s" (signal_name s)

(* Spawn [argv] (normally this executable with [--worker]) with frame
   pipes on its stdin/stdout and a captured stderr.  Close-on-exec, so no
   worker holds a sibling's pipe ends: when the supervisor dies, its
   workers see EOF or EPIPE and exit instead of hanging. *)
let spawn_exec ~argv ~env_fault : transport =
  let to_worker_r, to_worker_w = Unix.pipe ~cloexec:true () in
  let from_worker_r, from_worker_w = Unix.pipe ~cloexec:true () in
  let err_r, err_w = Unix.pipe ~cloexec:true () in
  let env =
    let base =
      Array.to_list (Unix.environment ())
      |> List.filter (fun kv ->
             not
               (String.length kv > String.length Fault_inject.worker_env
               && String.sub kv 0 (String.length Fault_inject.worker_env + 1)
                  = Fault_inject.worker_env ^ "="))
    in
    match env_fault with
    | None -> Array.of_list base
    | Some m ->
        Array.of_list ((Fault_inject.worker_env ^ "=" ^ m) :: base)
  in
  let pid =
    Unix.create_process_env argv.(0) argv env to_worker_r from_worker_w err_w
  in
  Unix.close to_worker_r;
  Unix.close from_worker_w;
  Unix.close err_w;
  {
    t_pid = Some pid;
    t_read = from_worker_r;
    t_write = to_worker_w;
    t_err = Some err_r;
    t_kill =
      (fun () -> try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
    t_wait =
      (fun () ->
        let _, status = Unix.waitpid [] pid in
        (status_to_string status, status = Unix.WEXITED 0));
  }

(* Build the argv for re-exec'ing the current CLI as a shard worker:
   the original command line minus supervisor-only flags (so the
   worker's discovery pass enumerates exactly the same cells), plus
   [--worker].  Flags in [drop] are removed together with their
   separate-token value; [--flag=value] spellings too. *)
let self_worker_argv ~drop () =
  let rec filter = function
    | [] -> []
    | tok :: rest when List.mem tok drop -> (
        match rest with _ :: rest' -> filter rest' | [] -> [])
    | tok :: rest
      when List.exists
             (fun d ->
               let dl = String.length d in
               String.length tok > dl + 1 && String.sub tok 0 (dl + 1) = d ^ "=")
             drop ->
        filter rest
    | tok :: rest -> tok :: filter rest
  in
  let args =
    match Array.to_list Sys.argv with
    | _ :: rest -> filter rest
    | [] -> []
  in
  Array.of_list ((Sys.executable_name :: args) @ [ "--worker" ])

(* ------------------------------------------------------------------ *)
(* Checkpoints                                                         *)
(* ------------------------------------------------------------------ *)

module Checkpoint = struct
  let path dir origin = Filename.concat dir (Printf.sprintf "shard-%d.json" origin)

  let rec ensure_dir dir =
    if dir <> "" && dir <> "/" && dir <> "." && not (Sys.file_exists dir)
    then begin
      ensure_dir (Filename.dirname dir);
      try Unix.mkdir dir 0o755
      with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
    end

  (* Atomic per-shard save: a kill mid-write leaves the previous file
     intact, never a truncated one. *)
  let save dir origin (completed : (int * string * Json.t) list) =
    ensure_dir dir;
    let file = path dir origin in
    let tmp = file ^ ".tmp" in
    let oc = open_out tmp in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () ->
        output_string oc
          (Json.to_string
             (Json.List
                (List.map
                   (fun (id, key, r) ->
                     Json.Obj
                       [ ("id", Json.Int id); ("key", Json.Str key); ("r", r) ])
                   completed)));
        output_char oc '\n');
    Sys.rename tmp file

  (* Load every shard-*.json in [dir]; entries whose (id, key) no longer
     match the current cell list are ignored (a stale checkpoint from a
     different grid must not poison the merge).  An unreadable or
     corrupt file is skipped with a warning naming it: its cells are
     recomputed, but the restart leaves a trace. *)
  let load_all dir (cells : Shard.cell list) =
    if not (Sys.file_exists dir) then []
    else begin
      let key_of = Hashtbl.create 64 in
      List.iter (fun c -> Hashtbl.replace key_of c.Shard.c_id c.Shard.c_key) cells;
      let files =
        Sys.readdir dir |> Array.to_list
        |> List.filter (fun f ->
               String.length f > 6
               && String.sub f 0 6 = "shard-"
               && Filename.check_suffix f ".json")
        |> List.sort compare
      in
      List.concat_map
        (fun f ->
          let file = Filename.concat dir f in
          match
            let ic = open_in_bin file in
            let s =
              Fun.protect
                ~finally:(fun () -> close_in_noerr ic)
                (fun () -> really_input_string ic (in_channel_length ic))
            in
            Json.to_list (Json.of_string (String.trim s))
          with
          | exception e ->
              Log.warn ~src:"checkpoint" ~fields:[ ("path", file) ]
                "ignoring unreadable or malformed checkpoint %s (%s); its \
                 cells are recomputed"
                file (Printexc.to_string e);
              []
          | entries ->
              List.filter_map
                (fun e ->
                  match
                    ( Json.(to_int (member "id" e)),
                      Json.(to_str (member "key" e)) )
                  with
                  | id, key when Hashtbl.find_opt key_of id = Some key ->
                      Some (id, key, Json.member "r" e)
                  | _ -> None
                  | exception _ -> None)
                entries)
        files
    end
end

(* ------------------------------------------------------------------ *)
(* The dispatch loop                                                   *)
(* ------------------------------------------------------------------ *)

type pending = {
  p_shard : int; (* display id *)
  p_origin : int; (* initial shard this work descends from *)
  p_cells : Shard.cell list;
  p_attempt : int;
  p_not_before : float;
}

let split_shards shards (cells : Shard.cell list) =
  let n = List.length cells in
  let shards = max 1 (min shards n) in
  let arr = Array.of_list cells in
  (* Contiguous ranges: deterministic, and bisection then narrows a
     crashing range monotonically. *)
  List.init shards (fun s ->
      let lo = s * n / shards and hi = (s + 1) * n / shards in
      Array.to_list (Array.sub arr lo (hi - lo)))
  |> List.filter (fun l -> l <> [])

(* Result ledger: which cells are resolved, the per-origin completion
   lists that back checkpoints, and the final deterministic merge.
   Commutative bookkeeping — results can arrive from any worker in any
   order and the merge is still byte-identical to a serial run. *)
module Ledger = struct
  type t = {
    g_bus : bus;
    g_cells : Shard.cell list;
    g_n : int;
    g_key_of_id : (int, string) Hashtbl.t;
    g_results : (int, outcome) Hashtbl.t;
    g_completed : (int, (int * string * Json.t) list ref) Hashtbl.t;
    g_dir : string option;
    g_saved_at : (int, float) Hashtbl.t; (* origin -> last streamed save *)
    mutable g_faults : int;
    mutable g_save_failed : bool;
  }

  let create ~bus ~checkpoint_dir cells =
    let key_of_id = Hashtbl.create 64 in
    List.iter
      (fun c -> Hashtbl.replace key_of_id c.Shard.c_id c.Shard.c_key)
      cells;
    {
      g_bus = bus;
      g_cells = cells;
      g_n = List.length cells;
      g_key_of_id = key_of_id;
      g_results = Hashtbl.create 64;
      g_completed = Hashtbl.create 8;
      g_dir = checkpoint_dir;
      g_saved_at = Hashtbl.create 8;
      g_faults = 0;
      g_save_failed = false;
    }

  let have t id = Hashtbl.mem t.g_results id
  let key_of t id = try Hashtbl.find t.g_key_of_id id with Not_found -> ""

  let record_ok t ~origin id r =
    if not (have t id) then begin
      Hashtbl.replace t.g_results id (O_ok r);
      let lst =
        match Hashtbl.find_opt t.g_completed origin with
        | Some l -> l
        | None ->
            let l = ref [] in
            Hashtbl.replace t.g_completed origin l;
            l
      in
      lst := (id, key_of t id, r) :: !lst
    end

  (* A structured fault is final: no retry or bisection rescues it. *)
  let poison t ~attempts id reason =
    if not (have t id) then begin
      t.g_faults <- t.g_faults + 1;
      let key = key_of t id in
      Hashtbl.replace t.g_results id
        (O_fault { f_key = key; f_attempts = attempts; f_reason = reason });
      emit t.g_bus (Poisoned { cell = id; key; attempts; reason })
    end

  let save_checkpoint t origin =
    match t.g_dir with
    | None -> ()
    | Some dir -> (
        match Hashtbl.find_opt t.g_completed origin with
        | Some l when !l <> [] -> (
            try Checkpoint.save dir origin (List.rev !l)
            with (Sys_error _ | Unix.Unix_error _) as e ->
              (* Best-effort: the run goes on, but says once that it is
                 not resumable. *)
              if not t.g_save_failed then begin
                t.g_save_failed <- true;
                let path = Checkpoint.path dir origin in
                Log.warn ~src:"checkpoint" ~fields:[ ("path", path) ]
                  "cannot save checkpoint %s (%s); the run goes on without \
                   checkpoints"
                  path (Printexc.to_string e)
              end)
        | _ -> ())

  (* A result streamed in mid-lease: save its origin, so a supervisor
     killed mid-lease keeps what reached it.  A save rewrites the whole
     origin file, so after an origin's first result saves are spaced
     [stream_save_interval] apart (saving every result made a 2000-program
     campaign 1.7x slower on a 2-core host); [end_lease] saves the rest. *)
  let stream_save_interval = 0.5

  let save_streamed t origin =
    let now = Unix.gettimeofday () in
    match Hashtbl.find_opt t.g_saved_at origin with
    | Some last when now -. last < stream_save_interval -> ()
    | _ ->
        Hashtbl.replace t.g_saved_at origin now;
        save_checkpoint t origin

  let load_checkpoints t =
    match t.g_dir with
    | None -> ()
    | Some dir ->
        let loaded = Checkpoint.load_all dir t.g_cells in
        if loaded <> [] then begin
          List.iter (fun (id, _, r) -> record_ok t ~origin:0 id r) loaded;
          emit t.g_bus (Checkpoint_loaded { cells = List.length loaded })
        end

  let remaining t =
    List.filter (fun c -> not (have t c.Shard.c_id)) t.g_cells

  let finish t =
    emit t.g_bus (Merged { cells = t.g_n; faults = t.g_faults });
    List.map
      (fun c ->
        match Hashtbl.find_opt t.g_results c.Shard.c_id with
        | Some o -> (c.Shard.c_id, o)
        | None ->
            (* Unreachable by construction — every cell is either
               resulted, poisoned, or recomputed by the fallback. *)
            ( c.Shard.c_id,
              O_fault
                {
                  f_key = c.Shard.c_key;
                  f_attempts = 0;
                  f_reason = "supervisor lost track of cell";
                } ))
      t.g_cells
end

(* One worker the loop selects on: a transport plus its frame decoder,
   liveness clock, handshake state and at most one lease, so a lost
   slot forfeits exactly one batch. *)
type slot = {
  sl_id : int; (* a spawned slot's shard, or a dial-in's accept order *)
  sl_peer : string;
  sl_tr : transport;
  sl_dec : Shard.Decoder.t;
  mutable sl_authed : bool;
  mutable sl_lease : pending option;
  mutable sl_done : bool; (* the worker reported its lease complete *)
  mutable sl_last : float; (* last bytes received *)
  mutable sl_leased_at : float;
  mutable sl_errbuf : string;
}

type loop = {
  l_bus : bus;
  l_cfg : config;
  l_ledger : Ledger.t;
  mutable l_slots : slot list;
  mutable l_pending : pending list;
  mutable l_next_shard : int;
  mutable l_progress : float; (* last connect, lease or result *)
}

(* Where slots come from.  Everything that knows about pipes, processes
   or sockets lives behind these fields. *)
type source = {
  src_fds : Unix.file_descr list; (* selected on besides the slots *)
  src_accept : Unix.file_descr list -> unit; (* given the readable set *)
  src_take : pending -> slot option; (* a free slot for this lease *)
  src_granted : slot -> pending -> unit; (* announce the lease *)
  src_hello : slot -> Shard.frame -> (unit, string) result;
      (* a frame from an unauthenticated slot *)
  src_done : slot -> unit; (* the lease's F_done arrived *)
  src_release : slot -> killed:bool -> string -> string;
      (* the slot leaves the loop: kill (if [killed]), reap or close,
         and say why any cells it leaves unresulted failed *)
  src_patience : float;
      (* s with work pending but no lease held before giving up *)
  src_shutdown : unit -> unit; (* the loop ended, normally or not *)
}

(* Raised by a source that cannot go on; the loop degrades to the
   in-process fallback for everything not yet computed. *)
exception Gave_up of string

let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()

let fresh_shard lp =
  let s = lp.l_next_shard in
  lp.l_next_shard <- s + 1;
  s

let add_slot lp ?(peer = "") ~id ~authed tr =
  let t = Unix.gettimeofday () in
  let s =
    {
      sl_id = id;
      sl_peer = peer;
      sl_tr = tr;
      sl_dec = Shard.Decoder.create ();
      sl_authed = authed;
      sl_lease = None;
      sl_done = false;
      sl_last = t;
      sl_leased_at = t;
      sl_errbuf = "";
    }
  in
  lp.l_slots <- s :: lp.l_slots;
  s

(* Failure disposition: retry with exponential backoff while the
   attempt budget lasts, then bisect a multi-cell batch towards the
   failing cell, and poison a single cell that keeps failing.  Cells
   already resulted are never requeued. *)
let requeue lp (p : pending) reason =
  let cfg = lp.l_cfg and now = Unix.gettimeofday () in
  let rest =
    List.filter (fun c -> not (Ledger.have lp.l_ledger c.Shard.c_id)) p.p_cells
  in
  let push q = lp.l_pending <- lp.l_pending @ q in
  if rest = [] then ()
  else if p.p_attempt >= cfg.max_attempts then
    if List.length rest > 1 then begin
      (* Bisect: narrow the crashing batch towards the poisoned cell;
         each half restarts its attempt budget. *)
      let arr = Array.of_list rest in
      let mid = Array.length arr / 2 in
      let left = Array.to_list (Array.sub arr 0 mid) in
      let right = Array.to_list (Array.sub arr mid (Array.length arr - mid)) in
      emit lp.l_bus
        (Bisect
           {
             shard = p.p_shard;
             left = List.length left;
             right = List.length right;
           });
      let mk cells =
        {
          p_shard = fresh_shard lp;
          p_origin = p.p_origin;
          p_cells = cells;
          p_attempt = 1;
          p_not_before = now +. cfg.backoff;
        }
      in
      push [ mk left; mk right ]
    end
    else
      Ledger.poison lp.l_ledger ~attempts:p.p_attempt (List.hd rest).Shard.c_id
        reason
  else begin
    let delay = cfg.backoff *. (2.0 ** float_of_int (p.p_attempt - 1)) in
    emit lp.l_bus
      (Retry { shard = p.p_shard; attempt = p.p_attempt + 1; delay });
    push
      [
        {
          p with
          p_cells = rest;
          p_attempt = p.p_attempt + 1;
          p_not_before = now +. delay;
        };
      ]
  end

(* The slot's lease is over: checkpoint its origin and requeue whatever
   it left unresulted, blaming [reason]. *)
let end_lease lp s reason =
  match s.sl_lease with
  | None -> ()
  | Some p ->
      s.sl_lease <- None;
      s.sl_done <- false;
      Ledger.save_checkpoint lp.l_ledger p.p_origin;
      requeue lp p reason

(* The lease a result for cell [id] belongs to.  A result outside the
   slot's lease is corruption, never a result. *)
let lease_of s id =
  match s.sl_lease with
  | Some p when List.exists (fun c -> c.Shard.c_id = id) p.p_cells -> p
  | _ -> Shard.protocol_error "result for cell %d outside the lease" id

(* Grant due leases, enforce deadlines, select over the slots, the
   source's fds and the /metrics fds, and handle what arrives — until
   nothing is pending or leased.  Returns why the source gave up, if
   it did. *)
let dispatch lp src ~http =
  let cfg = lp.l_cfg and bus = lp.l_bus in
  let now = Unix.gettimeofday in
  let lose s ~killed reason =
    if List.memq s lp.l_slots then begin
      lp.l_slots <- List.filter (fun x -> x != s) lp.l_slots;
      end_lease lp s (src.src_release s ~killed reason)
    end
  in
  let leased s = s.sl_lease <> None in
  let grant () =
    let t = now () in
    let due, later =
      List.partition (fun p -> p.p_not_before <= t) lp.l_pending
    in
    lp.l_pending <- later;
    let waiting =
      List.filter
        (fun p ->
          match src.src_take p with
          | None -> true
          | Some s ->
              s.sl_lease <- Some p;
              s.sl_leased_at <- t;
              s.sl_last <- t;
              lp.l_progress <- t;
              src.src_granted s p;
              (try Shard.write_frame s.sl_tr.t_write (Shard.F_work p.p_cells)
               with Unix.Unix_error _ ->
                 lose s ~killed:true "write failed at lease grant");
              false)
        due
    in
    lp.l_pending <- waiting @ lp.l_pending
  in
  let handle_frame s frame =
    if not s.sl_authed then
      match src.src_hello s frame with
      | Ok () -> ()
      | Error reason -> lose s ~killed:true reason
    else
      let shard = match s.sl_lease with Some p -> p.p_shard | None -> s.sl_id in
      match frame with
      | Shard.F_hb cell -> emit bus (Heartbeat { shard; cell })
      | Shard.F_result (id, r) ->
          let p = lease_of s id in
          Ledger.record_ok lp.l_ledger ~origin:p.p_origin id r;
          Ledger.save_streamed lp.l_ledger p.p_origin;
          lp.l_progress <- now ();
          emit bus (Cell_done { shard; cell = id })
      | Shard.F_cellfault { fc_id; fc_reason } ->
          (* The worker caught the failure itself: a structured fault,
             final immediately — no retry or bisection needed. *)
          let p = lease_of s fc_id in
          Ledger.poison lp.l_ledger ~attempts:p.p_attempt fc_id fc_reason;
          lp.l_progress <- now ();
          emit bus (Cell_fault { shard; cell = fc_id; reason = fc_reason })
      | Shard.F_log line -> emit bus (Worker_log { shard; line })
      | Shard.F_done ->
          if leased s then begin
            s.sl_done <- true;
            src.src_done s
          end
      | Shard.F_hello _ | Shard.F_work _ | Shard.F_exit | Shard.F_welcome _
      | Shard.F_reject _ ->
          ()
  in
  let buf = Bytes.create 65536 in
  let drain_err s fd =
    match
      Shard.retry_intr (fun () -> Unix.read fd buf 0 (Bytes.length buf))
    with
    | 0 -> ()
    | k ->
        s.sl_errbuf <- s.sl_errbuf ^ Bytes.sub_string buf 0 k;
        let rec lines () =
          match String.index_opt s.sl_errbuf '\n' with
          | Some i ->
              let line = String.sub s.sl_errbuf 0 i in
              s.sl_errbuf <-
                String.sub s.sl_errbuf (i + 1)
                  (String.length s.sl_errbuf - i - 1);
              if line <> "" then
                emit bus (Worker_stderr { shard = s.sl_id; line });
              lines ()
          | None -> ()
        in
        lines ()
    | exception Unix.Unix_error _ -> ()
  in
  let read s =
    match
      Shard.retry_intr (fun () ->
          Unix.read s.sl_tr.t_read buf 0 (Bytes.length buf))
    with
    | 0 -> lose s ~killed:false "connection closed"
    | k -> (
        s.sl_last <- now ();
        Shard.Decoder.feed s.sl_dec buf 0 k;
        try
          let rec pop () =
            if List.memq s lp.l_slots then
              match Shard.Decoder.next s.sl_dec with
              | Some f ->
                  handle_frame s f;
                  pop ()
              | None -> ()
          in
          pop ()
        with Json.Parse msg | Shard.Protocol msg ->
          lose s ~killed:true ("protocol corruption: " ^ msg))
    | exception Unix.Unix_error _ -> lose s ~killed:false "read error"
  in
  let deadlines t =
    List.iter
      (fun s ->
        if leased s && t -. s.sl_last > cfg.heartbeat then
          lose s ~killed:true
            (Printf.sprintf "heartbeat deadline (%.0fs) expired" cfg.heartbeat)
        else if leased s && t -. s.sl_leased_at > cfg.wall then
          lose s ~killed:true
            (Printf.sprintf "wall-clock budget (%.0fs) expired" cfg.wall)
        else if
          (not s.sl_authed) && t -. s.sl_last > Float.min cfg.heartbeat 10.0
        then lose s ~killed:true "handshake deadline expired")
      lp.l_slots
  in
  let timeout t =
    let next =
      List.fold_left
        (fun acc s ->
          if leased s then
            min acc
              (min (s.sl_last +. cfg.heartbeat) (s.sl_leased_at +. cfg.wall))
          else acc)
        infinity lp.l_slots
    in
    let next =
      List.fold_left
        (fun acc p ->
          if p.p_not_before > t then min acc p.p_not_before else acc)
        next lp.l_pending
    in
    Float.max 0.01 (Float.min 0.25 (next -. t))
  in
  let aborted = ref None in
  Fun.protect ~finally:src.src_shutdown (fun () ->
      while
        (lp.l_pending <> [] || List.exists leased lp.l_slots) && !aborted = None
      do
        (try grant () with Gave_up reason -> aborted := Some reason);
        let t = now () in
        deadlines t;
        if
          !aborted = None && lp.l_pending <> []
          && (not (List.exists leased lp.l_slots))
          && t -. lp.l_progress > src.src_patience
        then
          aborted :=
            Some
              (Printf.sprintf "no worker took a lease for %.0fs"
                 src.src_patience);
        if !aborted = None then begin
          let slots = lp.l_slots in
          let fds =
            List.concat_map
              (fun s -> s.sl_tr.t_read :: Option.to_list s.sl_tr.t_err)
              slots
            @ src.src_fds
            @ match http with Some h -> Http_listener.fds h | None -> []
          in
          let timeout = timeout t in
          if fds = [] then Unix.sleepf timeout
          else begin
            let readable, _, _ =
              Shard.retry_intr (fun () -> Unix.select fds [] [] timeout)
            in
            Option.iter (fun h -> Http_listener.handle h readable) http;
            src.src_accept readable;
            List.iter
              (fun s ->
                (* [s] may have been lost earlier this round. *)
                if List.memq s lp.l_slots then begin
                  (match s.sl_tr.t_err with
                  | Some e when List.memq e readable -> drain_err s e
                  | _ -> ());
                  if List.memq s.sl_tr.t_read readable then read s
                end)
              slots
          end
        end
      done);
  !aborted

(* ------------------------------------------------------------------ *)
(* Worker sources                                                      *)
(* ------------------------------------------------------------------ *)

(* Spawned workers: one process per lease, born authenticated, asked to
   exit once the lease is done and judged when reaped.  [cfg.shards]
   caps live processes. *)
let spawn_source lp ~spawn ~worker_argv =
  let bus = lp.l_bus and cfg = lp.l_cfg in
  let take (p : pending) =
    if List.length lp.l_slots >= cfg.shards then None
    else begin
      let env_fault =
        match cfg.inject with
        | Some m
          when Fault_inject.worker_mode_persistent m
               || (p.p_shard = 0 && p.p_attempt = 1) ->
            Some (Fault_inject.worker_mode_name m)
        | _ -> None
      in
      let tr =
        try
          match spawn with
          | Some f -> f ~shard:p.p_shard ~attempt:p.p_attempt ~env_fault
          | None -> spawn_exec ~argv:worker_argv ~env_fault
        with e -> raise (Gave_up ("spawn failed: " ^ Printexc.to_string e))
      in
      Some (add_slot lp ~id:p.p_shard ~authed:true tr)
    end
  in
  let reap s =
    close_quietly s.sl_tr.t_write;
    let status = s.sl_tr.t_wait () in
    close_quietly s.sl_tr.t_read;
    Option.iter close_quietly s.sl_tr.t_err;
    status
  in
  let release s ~killed reason =
    if killed then begin
      emit bus (Kill { shard = s.sl_id; reason });
      s.sl_tr.t_kill ()
    end;
    let status, clean = reap s in
    let truncated = Shard.Decoder.pending_bytes s.sl_dec > 0 in
    let all_resulted =
      match s.sl_lease with
      | Some p ->
          List.for_all (fun c -> Ledger.have lp.l_ledger c.Shard.c_id) p.p_cells
      | None -> true
    in
    let ok =
      (not killed) && s.sl_done && clean && all_resulted && not truncated
    in
    emit bus (Worker_exit { shard = s.sl_id; status; ok });
    if killed then reason
    else if truncated then Printf.sprintf "worker died mid-frame (%s)" status
    else if not (s.sl_done && clean) then
      Printf.sprintf "worker crashed (%s)" status
    else "worker exited without completing its cells"
  in
  {
    src_fds = [];
    src_accept = ignore;
    src_take = take;
    src_granted =
      (fun s p ->
        emit bus
          (Spawn
             {
               shard = p.p_shard;
               attempt = p.p_attempt;
               pid = s.sl_tr.t_pid;
               cells = List.length p.p_cells;
             }));
    src_hello = (fun _ _ -> Ok ());
    src_done =
      (fun s ->
        (* Ask the worker to exit cleanly; EOF follows. *)
        try Shard.write_frame s.sl_tr.t_write Shard.F_exit
        with Unix.Unix_error _ -> ());
    src_release = release;
    src_patience = infinity;
    src_shutdown =
      (fun () ->
        (* Never leak workers, whatever ended the loop. *)
        List.iter
          (fun s ->
            s.sl_tr.t_kill ();
            ignore (reap s))
          lp.l_slots);
  }

(* Dial-in workers: accepted TCP connections that must present the
   campaign token and protocol version before they are leased work,
   then go idle between leases.  A connection that ends, stalls or
   corrupts the stream forfeits its lease. *)
let listen_source lp ~pool =
  let bus = lp.l_bus in
  let lsock, port = Shard.listen_socket pool.pl_listen in
  emit bus (Listening { addr = pool.pl_listen; port });
  let next_worker = ref 0 in
  let accept readable =
    if List.memq lsock readable then
      match Shard.retry_intr (fun () -> Unix.accept lsock) with
      | fd, peer ->
          let tr =
            {
              t_pid = None;
              t_read = fd;
              t_write = fd;
              t_err = None;
              t_kill = ignore;
              t_wait = (fun () -> ("closed", true));
            }
          in
          ignore
            (add_slot lp ~peer:(Shard.string_of_sockaddr peer)
               ~id:!next_worker ~authed:false tr);
          incr next_worker
      | exception Unix.Unix_error _ -> ()
  in
  let reject s reason =
    emit bus (Worker_rejected { peer = s.sl_peer; reason });
    (try Shard.write_frame s.sl_tr.t_write (Shard.F_reject reason)
     with Unix.Unix_error _ -> ());
    Error reason
  in
  let hello s = function
    | Shard.F_hello { h_version; _ } when h_version <> Shard.protocol_version ->
        reject s
          (Printf.sprintf "protocol version %d (supervisor speaks %d)" h_version
             Shard.protocol_version)
    | Shard.F_hello { h_token; _ } when h_token <> pool.pl_token ->
        reject s "bad campaign token"
    | Shard.F_hello _ -> (
        match
          Shard.write_frame s.sl_tr.t_write
            (Shard.F_welcome Shard.protocol_version)
        with
        | () ->
            s.sl_authed <- true;
            lp.l_progress <- Unix.gettimeofday ();
            emit bus (Worker_connected { worker = s.sl_id; peer = s.sl_peer });
            Ok ()
        | exception Unix.Unix_error _ -> Error "write failed at handshake")
    | _ -> reject s "frame before handshake"
  in
  {
    src_fds = [ lsock ];
    src_accept = accept;
    src_take =
      (fun _ ->
        List.find_opt (fun s -> s.sl_authed && s.sl_lease = None) lp.l_slots);
    src_granted =
      (fun s p ->
        emit bus
          (Lease_granted
             {
               shard = p.p_shard;
               worker = s.sl_id;
               cells = List.length p.p_cells;
               attempt = p.p_attempt;
             }));
    src_hello = hello;
    src_done =
      (fun s ->
        (* A "done" lease can still be short of results (a dropped
           frame): the missing cells are requeued — never invented — and
           the connection stays in the pool. *)
        end_lease lp s "lease completed with missing results");
    src_release =
      (fun s ~killed:_ reason ->
        if s.sl_authed then
          emit bus (Worker_disconnected { worker = s.sl_id; reason });
        close_quietly s.sl_tr.t_read;
        reason);
    src_patience = pool.pl_accept_wall;
    src_shutdown =
      (fun () ->
        (* Tell every surviving worker to exit cleanly (a dial-in worker
           that merely lost its connection would redial; F_exit is what
           ends it). *)
        List.iter
          (fun s ->
            (try Shard.write_frame s.sl_tr.t_write Shard.F_exit
             with Unix.Unix_error _ -> ());
            close_quietly s.sl_tr.t_read)
          lp.l_slots;
        lp.l_slots <- [];
        close_quietly lsock);
  }

(* Resume from checkpoints, open the source, run the loop, and compute
   in process whatever the workers could not — everything, when there
   is no source.  In process, a run with a checkpoint dir goes
   [cfg.shards] cells at a time and saves after each batch, so a killed
   run loses at most one batch; without one it is one [fallback] call. *)
let supervise ~bus ~http cfg ~fallback cells open_source =
  Shard.ignore_sigpipe ();
  let ledger = Ledger.create ~bus ~checkpoint_dir:cfg.checkpoint_dir cells in
  let rec fill = function
    | [] -> ()
    | cells ->
        let batch, rest =
          match cfg.checkpoint_dir with
          | None -> (cells, [])
          | Some _ ->
              let n = max 1 cfg.shards in
              ( List.filteri (fun i _ -> i < n) cells,
                List.filteri (fun i _ -> i >= n) cells )
        in
        List.iter
          (fun (id, r) -> Ledger.record_ok ledger ~origin:0 id r)
          (fallback batch);
        Ledger.save_checkpoint ledger 0;
        fill rest
  in
  let run_fallback reason =
    emit bus (Fallback { reason });
    fill (Ledger.remaining ledger)
  in
  Ledger.load_checkpoints ledger;
  (match (Ledger.remaining ledger, open_source) with
  | [], _ -> ()
  | remaining, None -> fill remaining
  | remaining, Some open_source -> (
      let lp =
        {
          l_bus = bus;
          l_cfg = cfg;
          l_ledger = ledger;
          l_slots = [];
          l_pending = [];
          l_next_shard = 0;
          l_progress = Unix.gettimeofday ();
        }
      in
      lp.l_pending <-
        List.map
          (fun cs ->
            let s = fresh_shard lp in
            {
              p_shard = s;
              p_origin = s;
              p_cells = cs;
              p_attempt = 1;
              p_not_before = 0.0;
            })
          (split_shards cfg.shards remaining);
      match open_source lp with
      | Error reason -> run_fallback reason
      | Ok src -> Option.iter run_fallback (dispatch lp src ~http)));
  Ledger.finish ledger

(* Shard [cells] across spawned copies of [worker_argv] (or the
   transports [spawn] makes).  When processes cannot be spawned the
   whole batch runs in-process. *)
let run ?(bus = create_bus ()) ?spawn ?http (cfg : config)
    ~(worker_argv : string array)
    ~(fallback : Shard.cell list -> (int * Json.t) list)
    (cells : Shard.cell list) : (int * outcome) list =
  supervise ~bus ~http cfg ~fallback cells
    (Some
       (fun lp ->
         if Shard.can_spawn () then Ok (spawn_source lp ~spawn ~worker_argv)
         else Error "process spawning unavailable"))

(* [run] over TCP: listen on [pool.pl_listen] and lease work batches to
   authenticated dial-in workers.  [cfg.shards] bounds the initial
   leases; worker count is whatever dials in.  Emits [Listening] with
   the bound port before accepting (subscribers — tests, log tooling —
   learn the real port when [pl_listen] ends in ":0"). *)
let run_pool ?(bus = create_bus ()) ?http (cfg : config)
    ?(pool = default_pool_config)
    ~(fallback : Shard.cell list -> (int * Json.t) list)
    (cells : Shard.cell list) : (int * outcome) list =
  supervise ~bus ~http cfg ~fallback cells
    (Some (fun lp -> Ok (listen_source lp ~pool)))

(* The usual [fallback]: [compute] each cell id over [jobs] domains. *)
let in_process ~jobs compute (cells : Shard.cell list) =
  let cells = Array.of_list cells in
  let rs =
    Parallel.map ~jobs
      (Array.map (fun (c : Shard.cell) () -> compute c.Shard.c_id) cells)
  in
  Array.to_list (Array.mapi (fun i (c : Shard.cell) -> (c.Shard.c_id, rs.(i))) cells)

(* ------------------------------------------------------------------ *)
(* Experiment-grid client                                              *)
(* ------------------------------------------------------------------ *)

(* Glue between the generic supervisor and [Experiment] sessions: the
   discovery pass enumerates the cells (sorted by serializable key, so
   supervisor and workers agree on ids), workers compute
   [Experiment.run_result]s, and the merged results are installed in
   the session cache before the generator replays — making supervised
   output byte-identical to the serial run. *)
module Grid = struct
  module E = Experiment
  module Stats = Protean_ooo.Stats

  (* A [Stats.t] travels as one object keyed by [Stats.fields] names plus
     the per-port array: {"cycles":N,...,"port_busy":[...]}.  Keys are
     matched by name, so a reordered payload decodes to the same record,
     and a missing or unknown name is a decode error — never a shifted
     value. *)
  let stats_to_json (s : Stats.t) =
    Json.Obj
      (List.map
         (fun (f : Stats.field) -> (f.Stats.name, Json.Int (f.Stats.get s)))
         Stats.fields
      @ [
          ( Stats.port_busy_name,
            Json.List
              (Array.to_list
                 (Array.map (fun n -> Json.Int n) (Stats.get_port_busy s))) );
        ])

  let stats_of_json j =
    let s = Stats.create () and seen = ref [] in
    List.iter
      (fun (k, v) ->
        if List.mem k !seen then Json.parse_error "duplicate counter %s" k;
        seen := k :: !seen;
        if k = Stats.port_busy_name then
          Stats.set_port_busy s
            (Array.of_list (List.map Json.to_int (Json.to_list v)))
        else
          match List.find_opt (fun f -> f.Stats.name = k) Stats.fields with
          | Some f -> f.Stats.set s (Json.to_int v)
          | None -> Json.parse_error "unknown stats counter %s" k)
      (match j with Json.Obj kvs -> kvs | _ -> Json.parse_error "bad stats");
    let names =
      Stats.port_busy_name :: List.map (fun f -> f.Stats.name) Stats.fields
    in
    (match List.find_opt (fun n -> not (List.mem n !seen)) names with
    | Some n -> Json.parse_error "stats payload lacks %s" n
    | None -> s)

  (* Named-counter lists (policy metrics, folded flame stacks) ride the
     frame protocol as [[name, n], ...] pairs. *)
  let counters_to_json kvs =
    Json.List
      (List.map
         (fun (k, v) -> Json.List [ Json.Str k; Json.Int v ])
         kvs)

  let counters_of_json j =
    List.map
      (fun e ->
        match Json.to_list e with
        | [ k; v ] -> (Json.to_str k, Json.to_int v)
        | _ -> Json.parse_error "bad counter pair")
      (Json.to_list j)

  let result_to_json (r : E.run_result) =
    Json.Obj
      ([
         ("cycles", Json.Float r.E.cycles);
         ("stats", Json.List (List.map stats_to_json r.E.stats));
         ("code_size_ratio", Json.Float r.E.code_size_ratio);
         ("inserted_moves", Json.Int r.E.inserted_moves);
       ]
      (* Telemetry payloads (and the shared-frontend tag) are omitted
         when empty: keeps frames (and checkpoints written by
         telemetry-free or sharing-disabled runs) byte-compatible. *)
      @ (if r.E.policy_metrics = [] then []
         else [ ("pm", counters_to_json r.E.policy_metrics) ])
      @ (if r.E.flame = [] then [] else [ ("fl", counters_to_json r.E.flame) ])
      @ (if r.E.window = [] then []
         else [ ("wn", counters_to_json r.E.window) ])
      @ if r.E.frontend = "" then [] else [ ("fe", Json.Str r.E.frontend) ])

  let result_of_json j =
    let opt k decode default =
      match Json.member k j with Json.Null -> default | v -> decode v
    in
    {
      E.cycles = Json.(to_float (member "cycles" j));
      stats = List.map stats_of_json Json.(to_list (member "stats" j));
      code_size_ratio = Json.(to_float (member "code_size_ratio" j));
      inserted_moves = Json.(to_int (member "inserted_moves" j));
      policy_metrics = opt "pm" counters_of_json [];
      flame = opt "fl" counters_of_json [];
      frontend = opt "fe" Json.to_str "";
      window = opt "wn" counters_of_json [];
    }

  (* A cell's identity on the wire and in checkpoints: its session key
     plus what this process collects, so a checkpoint of a run that
     collected less (no policy counters, flame stacks or window
     counters, no certificate audit) never resumes into one that
     collects more.  Session keys, and with them metric labels and the
     attribution report, stay as they are. *)
  let cell_key key =
    Printf.sprintf "%s|pm=%b|fl=%b|wn=%b|certs=%b" key
      !E.collect_policy_metrics !E.collect_flame !E.collect_window
      !Protean_protcc.Certify.enabled

  (* [--worker] mode of a tables/figures CLI: rerun the same discovery
     (same argv modulo supervisor flags, so the same cells at the same
     ids), then serve cell computations — over stdin/stdout for a local
     supervisor, or by dialing a [--listen]ing one when [connect] is
     given. *)
  let worker ?(jobs = 1) ?connect ?(token = default_pool_config.pl_token)
      session gen =
    let cells = E.discover session gen in
    let by_key = Hashtbl.create 64 in
    List.iter (fun (k, s) -> Hashtbl.replace by_key (cell_key k) s) cells;
    let compute key =
      match Hashtbl.find_opt by_key key with
      | Some spec -> result_to_json (E.compute spec)
      | None -> failwith ("unknown cell key: " ^ key)
    in
    match connect with
    | None -> Shard.worker_main ~jobs ~compute ()
    | Some addr -> Shard.connect_worker ~jobs ~addr ~token ~compute ()

  (* Supervised [Experiment.prewarm]: discovery, sharded fill across
     worker processes, deterministic merge into the session cache,
     serial replay.  Poisoned cells resolve to the grid's usual faulted
     sentinel (a nan cell) plus a structured fault report, so one
     crashing cell cannot take the grid down. *)
  let supervised ?bus ?(config = default_config) ?pool ?http ~worker_argv
      ?(jobs = 1) session gen =
    let cells = E.discover session gen in
    if cells = [] then gen ()
    else begin
      (* Re-sort so cells of one shared-frontend group are contiguous:
         [split_shards] hands out contiguous id ranges, so grouped
         cells land on the same worker and its process-local frontend
         cache is built once per group instead of once per shard-span
         fragment.  Purely a scheduling permutation — the merge below
         is key-based, so replayed output stays byte-identical. *)
      let cells =
        if not !E.share_frontend then cells
        else
          List.stable_sort
            (fun (ka, sa) (kb, sb) ->
              match compare (E.frontend_key sa) (E.frontend_key sb) with
              | 0 -> compare (ka : string) kb
              | c -> c)
            cells
      in
      let specs = Array.of_list (List.map snd cells) in
      let keys = Array.of_list (List.map fst cells) in
      let shard_cells =
        List.mapi (fun i (k, _) -> { Shard.c_id = i; c_key = cell_key k }) cells
      in
      let fallback =
        in_process ~jobs (fun id -> result_to_json (E.compute specs.(id)))
      in
      let outcomes =
        match pool with
        | Some p -> run_pool ?bus ?http config ~pool:p ~fallback shard_cells
        | None -> run ?bus ?http config ~worker_argv ~fallback shard_cells
      in
      (* A payload that does not decode (a damaged checkpoint, a frame
         from a worker of another build) is recomputed here, never
         fatal and never a silently shifted value. *)
      let merged =
        List.map
          (fun (id, o) ->
            match o with
            | O_ok r -> (
                match result_of_json r with
                | res -> (keys.(id), res)
                | exception Json.Parse reason ->
                    Log.warn ~src:"grid" ~fields:[ ("cell", keys.(id)) ]
                      "undecodable result for cell %s (%s); recomputing it \
                       in process"
                      keys.(id) reason;
                    (keys.(id), E.compute specs.(id)))
            | O_fault { f_attempts; f_reason; _ } ->
                E.log_line "[fault] cell=%s: %s (after %d worker attempts)"
                  keys.(id) f_reason f_attempts;
                (keys.(id), E.faulted_result))
          outcomes
      in
      E.install session merged;
      gen ()
    end
end

(* ------------------------------------------------------------------ *)
(* Fuzz-campaign client                                                *)
(* ------------------------------------------------------------------ *)

(* Every fuzz campaign, whatever its width, as supervised cells: program
   indices keyed by the campaign's identity, each computed by the one
   barrier [Fuzz.cell] and merged by [Fuzz.finish].  So there is one
   checkpoint format, resumable at every width, and a poisoned cell is
   reported like any other skipped program. *)
module Campaign = struct
  module Fuzz = Protean_amulet.Fuzz

  let cells campaign d =
    List.init campaign.Fuzz.programs (fun i ->
        { Shard.c_id = i; c_key = Fuzz.cell_key campaign d i })

  (* [--worker] side.  A key of another campaign is refused (the worker
     reports a cellfault) rather than computed as the wrong cell. *)
  let compute ?cert_poison campaign d =
    let index = Hashtbl.create 64 in
    List.iter
      (fun c -> Hashtbl.replace index c.Shard.c_key c.Shard.c_id)
      (cells campaign d);
    fun key ->
      match Hashtbl.find_opt index key with
      | Some i -> Fuzz.cell ?cert_poison campaign d i
      | None -> failwith ("unknown cell key: " ^ key)

  (* [dispatch] runs the cells on workers ([run] or [run_pool] with
     their wiring applied); without it they run in process, serially or
     over [jobs] domains.  Either way [cfg.checkpoint_dir] is resumed
     and saved. *)
  let run ?(bus = create_bus ()) ?dispatch ?(jobs = 1) ?program_of ?shrink
      (cfg : config) campaign d =
    let fallback = in_process ~jobs (Fuzz.cell ?program_of campaign d) in
    let cells = cells campaign d in
    let outcomes =
      match dispatch with
      | Some dispatch -> dispatch cfg ~fallback cells
      | None -> supervise ~bus ~http:None cfg ~fallback cells None
    in
    Fuzz.finish ?shrink ?program_of campaign d
      (List.map
         (fun (id, o) ->
           ( id,
             match o with
             | O_ok j -> j
             | O_fault { f_attempts; f_reason; _ } ->
                 Fuzz.skipped_cell campaign
                   (Printf.sprintf "worker crashed on every attempt (%d): %s"
                      f_attempts f_reason) ))
         outcomes)
end
