(* A fixed reference computation, timed next to every iteration.

   On a shared host the same iteration can take up to twice as long,
   in phases lasting tens of seconds, as other tenants contend for the
   caches and memory the simulator depends on.  The reference does the
   same kind of work, so it slows down in the same phases: a dependent
   pointer chase through 8 MiB, then stores streamed through 24 MiB
   (together the size of the tuned 32 MiB minor heap the simulator
   allocates through).  Dividing an iteration's time by the
   reference's time next to it cancels most of that shared slowdown.

   The reference uses no repository code, so no change to the program
   can change it.  It runs in a helper process of its own, so its
   buffer is neither in the measured process's memory nor inherited by
   the workers that process spawns. *)

open Bigarray

(* [run]'s time on an unloaded host (a 2-vCPU Intel Xeon VM with 2 MiB
   L2 and a shared L3): the host speed that normalized times are
   quoted at. *)
let nominal_s = 0.05

let words = 4 * 1024 * 1024
let chase_words = 1024 * 1024

let make_buffer () =
  let b = Array1.create int c_layout words in
  (* Sattolo's shuffle: one cycle through all [chase_words] slots. *)
  for i = 0 to chase_words - 1 do
    Array1.unsafe_set b i i
  done;
  let s = ref 0x2545F491 in
  for i = chase_words - 1 downto 1 do
    s := ((!s * 1103515245) + 12345) land 0x3fffffff;
    let j = !s mod i in
    let t = Array1.unsafe_get b i in
    Array1.unsafe_set b i (Array1.unsafe_get b j);
    Array1.unsafe_set b j t
  done;
  Array1.fill (Array1.sub b chase_words (words - chase_words)) 0;
  b

let sink = ref 0

(* Seconds one pass of the reference takes now. *)
let time_once (b : (int, int_elt, c_layout) Array1.t) =
  let t0 = Unix.gettimeofday () in
  let p = ref 0 in
  for _ = 1 to 400_000 do
    p := Array1.unsafe_get b !p
  done;
  for pass = 1 to 3 do
    for i = chase_words to words - 1 do
      Array1.unsafe_set b i (i + pass)
    done
  done;
  sink := !p;
  Unix.gettimeofday () -. t0

(* The helper's loop: a ready line once the buffer is built, then one
   timing per byte read from standard input, written back as a line;
   ends at end of input. *)
let serve () =
  let b = make_buffer () in
  print_endline "ready";
  try
    while true do
      ignore (input_char stdin);
      Printf.printf "%.17g\n%!" (time_once b)
    done
  with End_of_file -> ()

type t = { pid : int; requests : out_channel; replies : in_channel }

(* Start the helper (this executable run with [flag], which must call
   [serve]) and wait until it is ready, so that building its buffer
   overlaps nothing that is measured. *)
let start ~flag =
  let req_r, req_w = Unix.pipe ~cloexec:true () in
  let rep_r, rep_w = Unix.pipe ~cloexec:true () in
  let exe = Sys.executable_name in
  let pid = Unix.create_process exe [| exe; flag |] req_r rep_w Unix.stderr in
  Unix.close req_r;
  Unix.close rep_w;
  let t =
    { pid; requests = Unix.out_channel_of_descr req_w; replies = Unix.in_channel_of_descr rep_r }
  in
  ignore (input_line t.replies);
  t

let run t =
  output_char t.requests 'r';
  flush t.requests;
  float_of_string (input_line t.replies)

let stop t =
  close_out_noerr t.requests;
  close_in_noerr t.replies;
  ignore (Unix.waitpid [] t.pid)
