(* Host facts recorded with every measurement. *)

external maxrss_self_kib : unit -> int = "perfbench_maxrss_self_kib"
external maxrss_children_kib : unit -> int = "perfbench_maxrss_children_kib"

(* Peak resident MiB over this process and every child it has reaped. *)
let peak_rss_mib () =
  let mib kib = float_of_int kib /. 1024. in
  Float.max (mib (maxrss_self_kib ())) (mib (maxrss_children_kib ()))

(* The 1-, 5- and 15-minute load averages; [] where /proc is absent. *)
let loadavg () =
  match open_in "/proc/loadavg" with
  | exception Sys_error _ -> []
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          match String.split_on_char ' ' (input_line ic) with
          | a :: b :: c :: _ -> List.filter_map float_of_string_opt [ a; b; c ]
          | _ | (exception End_of_file) -> [])
