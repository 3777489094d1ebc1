(* Architectural ProtSet tracking (Section IV-B).

   The ProtSet is the set of architectural state elements (registers and
   memory bytes) whose contents a defense promises to keep from leaking
   transiently.  ProtISA makes it software-programmable:

   - PROT-prefixed instructions add their output registers to the set;
   - unprefixed instructions remove their output registers, and any memory
     bytes they read, from the set;
   - stores label written bytes with the protection of their data operand;
   - sub-register (W8) writes leave the full register's protection
     unchanged when unprefixed and protect it when PROT-prefixed.

   Initially all memory is protected and all registers are unprotected
   (registers hold the public initial inputs; memory may hold secrets). *)

open Protean_isa

type t = {
  reg : bool array; (* per architectural register *)
  mem_unprot : Page_map.t;
      (* one byte per memory byte: 1 = unprotected.  Absent page (all
         zero) = protected. *)
}

let create () =
  let reg = Array.make Reg.count false in
  { reg; mem_unprot = Page_map.create () }

let copy t = { reg = Array.copy t.reg; mem_unprot = Page_map.copy t.mem_unprot }

let reg_protected t r = t.reg.(Reg.to_int r)
let set_reg t r v = t.reg.(Reg.to_int r) <- v

let mem_byte_protected t addr =
  let p = Page_map.find t.mem_unprot (Page_map.page_number addr) in
  Bytes.length p = 0 || Bytes.get p (Page_map.offset addr) = '\000'

let set_mem_byte t addr ~protected =
  let p = Page_map.get t.mem_unprot (Page_map.page_number addr) in
  Bytes.set p (Page_map.offset addr) (if protected then '\000' else '\001')

(* Both range operations do one page lookup when the [size] bytes sit in
   one page, and fall back to the byte loop when they straddle two. *)
let mem_protected t addr size =
  let off = Page_map.offset addr in
  if off + size <= Page_map.page_size then begin
    let p = Page_map.find t.mem_unprot (Page_map.page_number addr) in
    if Bytes.length p = 0 then size > 0
    else begin
      let any = ref false in
      for i = off to off + size - 1 do
        if Bytes.get p i = '\000' then any := true
      done;
      !any
    end
  end
  else begin
    let any = ref false in
    for i = 0 to size - 1 do
      if mem_byte_protected t (Int64.add addr (Int64.of_int i)) then any := true
    done;
    !any
  end

let set_mem t addr size ~protected =
  let off = Page_map.offset addr in
  if size <= 0 then ()
  else if off + size <= Page_map.page_size then
    Bytes.fill
      (Page_map.get t.mem_unprot (Page_map.page_number addr))
      off size
      (if protected then '\000' else '\001')
  else
    for i = 0 to size - 1 do
      set_mem_byte t (Int64.add addr (Int64.of_int i)) ~protected
    done

let src_protected t = function
  | Insn.Reg r -> reg_protected t r
  | Insn.Imm _ -> false

(* Is the write to [r] by [insn] a sub-register (merging) write? *)
let is_subreg_write (insn : Insn.t) r =
  match insn.op with
  | Insn.Mov (Insn.W8, d, _) | Insn.Load (Insn.W8, d, _) -> Reg.equal d r
  | _ -> false

(* Advance the ProtSet across one architecturally-executed instruction. *)
let step t (eff : Exec.effect_) =
  let insn = eff.e_insn in
  (* Memory bytes written by stores take the protection of the data
     operand; this happens before register updates so push/call use the
     pre-instruction register protections. *)
  (match (insn.op, eff.e_store) with
  | Insn.Store (_, _, s), Some (addr, size, _) ->
      set_mem t addr size ~protected:(src_protected t s)
  | Insn.Push s, Some (addr, size, _) ->
      set_mem t addr size ~protected:(src_protected t s)
  | Insn.Call _, Some (addr, size, _) ->
      (* The pushed return address is program-counter data: public. *)
      set_mem t addr size ~protected:false
  | _ -> ());
  (* Unprefixed instructions unprotect the memory bytes they read. *)
  (match eff.e_load with
  | Some (addr, size, _) when not insn.prot -> set_mem t addr size ~protected:false
  | _ -> ());
  (* Output registers. *)
  List.iter
    (fun r ->
      if insn.prot then set_reg t r true
      else if not (is_subreg_write insn r) then set_reg t r false)
    (Insn.writes insn.op)

let protected_regs t =
  List.filter (fun r -> reg_protected t r) Reg.all
