(* AccessDelay — the protection mechanism of NDA and SpecShield
   (Section VI-A1).

   Hardware-defined ProtSet: all of memory, no registers; targets
   non-secret-accessing (ARCH) code.  Access instructions are loads.  They
   may execute and write back speculatively but may not wake up their
   dependents until they become non-speculative, so transiently-accessed
   data never reaches a transmitter. *)

open Protean_ooo

let make () =
  {
    Policy.unsafe with
    Policy.name = "access-delay";
    may_forward =
      (fun api e ->
        (not (Rob_entry.is_load e)) || not (Policy.is_speculative api e));
    (* Every denied forward is one wakeup-delay cycle of one source (a
       denial must not count itself: see [Policy]). *)
    metrics =
      (fun st -> [ ("forward_blocks", st.Stats.wakeup_delay_cycles) ]);
  }
