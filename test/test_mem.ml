(* Tests for the memory substrate: tagged SRAM (incl. the Ibex split
   micro-tag design of paper section 4), the revocation bitmap (3.3.1),
   MMIO and the bus. *)

open Cheriot_mem

let base = 0x1000

let test_rw_widths () =
  let s = Sram.create ~base ~size:256 in
  Sram.write8 s (base + 1) 0xab;
  Sram.write16 s (base + 2) 0xcdef;
  Sram.write32 s (base + 4) 0x12345678;
  Alcotest.(check int) "read8" 0xab (Sram.read8 s (base + 1));
  Alcotest.(check int) "read16" 0xcdef (Sram.read16 s (base + 2));
  Alcotest.(check int) "read32" 0x12345678 (Sram.read32 s (base + 4));
  (* little-endian composition *)
  Alcotest.(check int) "le bytes" 0x78 (Sram.read8 s (base + 4));
  Alcotest.(check int) "le half" 0xab00 (Sram.read16 s base);
  Alcotest.(check bool) "out of range" true
    (try
       ignore (Sram.read32 s (base + 256));
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "misaligned" true
    (try
       ignore (Sram.read32 s (base + 2));
       false
     with Invalid_argument _ -> true)

let tagged w = Cheriot_core.Capability.of_word ~tag:true w
let cap_tag s a = Cheriot_core.Capability.tag (Sram.read_cap s a)

let test_cap_tags () =
  let s = Sram.create ~base ~size:256 in
  Sram.write_cap s (base + 8) (tagged 0x0123456789abcdefL);
  let c = Sram.read_cap s (base + 8) in
  Alcotest.(check bool) "tag" true (Cheriot_core.Capability.tag c);
  Alcotest.(check int64) "word" 0x0123456789abcdefL
    (Cheriot_core.Capability.to_word c);
  (* A 32-bit data write to either half clears the architectural tag
     (the Ibex split-tag AND, paper section 4). *)
  Sram.write_cap s (base + 16) (tagged 1L);
  Sram.write32 s (base + 20) 0;
  Alcotest.(check bool) "high half write clears" false (cap_tag s (base + 16));
  Sram.write_cap s (base + 16) (tagged 1L);
  Sram.write8 s (base + 16) 0;
  Alcotest.(check bool) "byte write clears" false (cap_tag s (base + 16));
  (* micro-tags are per half *)
  Sram.write_cap s (base + 24) (tagged 1L);
  Sram.write32 s (base + 24) 0;
  let lo, hi = Sram.read_microtags s (base + 24) in
  Alcotest.(check (pair bool bool)) "low microtag cleared" (false, true)
    (lo, hi)

let test_fill_blit () =
  let s = Sram.create ~base ~size:256 in
  Sram.write_cap s (base + 8) (tagged 42L);
  Sram.fill s ~addr:(base + 8) ~len:16 '\000';
  Alcotest.(check bool) "fill clears tags" false (Sram.tag_at s (base + 8));
  Sram.blit_string s ~addr:base "hello";
  Alcotest.(check int) "blit" (Char.code 'e') (Sram.read8 s (base + 1))

let test_revbits () =
  let rev = Revbits.create ~heap_base:0x8000 ~heap_size:0x1000 () in
  Alcotest.(check bool) "initially clear" false (Revbits.is_revoked rev 0x8010);
  Revbits.paint rev ~addr:0x8010 ~len:24;
  Alcotest.(check bool) "painted start" true (Revbits.is_revoked rev 0x8010);
  Alcotest.(check bool) "painted mid" true (Revbits.is_revoked rev 0x8017);
  Alcotest.(check bool) "painted end" true (Revbits.is_revoked rev 0x8020);
  Alcotest.(check bool) "after range clear" false
    (Revbits.is_revoked rev 0x8028);
  Alcotest.(check int) "painted count" 3 (Revbits.painted_granules rev);
  Revbits.clear rev ~addr:0x8010 ~len:24;
  Alcotest.(check int) "cleared" 0 (Revbits.painted_granules rev);
  (* outside the covered region: never revoked (code/stacks have no
     revocation bits, 3.3.1) *)
  Alcotest.(check bool) "outside region" false (Revbits.is_revoked rev 0x100);
  (* SRAM overhead: 1 bit per 8 bytes = 1.56% *)
  Alcotest.(check int) "bitmap bytes" (0x1000 / 64) (Revbits.bitmap_bytes rev)

let test_revbits_granule_ablation () =
  let rev = Revbits.create ~granule_log2:5 ~heap_base:0 ~heap_size:0x1000 () in
  Alcotest.(check int) "32B granule" 32 (Revbits.granule_size rev);
  Revbits.paint rev ~addr:0 ~len:1;
  Alcotest.(check bool) "whole granule revoked" true (Revbits.is_revoked rev 31)

let test_bus_routing () =
  let bus = Bus.create () in
  let s = Sram.create ~base ~size:256 in
  Bus.add_sram bus s;
  let dev, backing = Mmio.ram_backed ~name:"dev" ~base:0x9000 ~size:16 in
  Bus.add_device bus dev;
  Bus.write bus ~width:4 base 7;
  Alcotest.(check int) "sram via bus" 7 (Bus.read bus ~width:4 base);
  Bus.write bus ~width:4 0x9004 99;
  Alcotest.(check int) "mmio via bus" 99 (Bus.read bus ~width:4 0x9004);
  Alcotest.(check int) "mmio backing" 99
    (Int32.to_int (Bytes.get_int32_le backing 4));
  Alcotest.(check bool) "unmapped raises" true
    (try
       ignore (Bus.read bus ~width:4 0xdead0000);
       false
     with Bus.Bus_error _ -> true);
  (* byte access to MMIO is a bus error *)
  Alcotest.(check bool) "mmio width-1 raises" true
    (try
       ignore (Bus.read bus ~width:1 0x9004);
       false
     with Bus.Bus_error _ -> true)

let test_bus_snoop () =
  let bus = Bus.create () in
  let s = Sram.create ~base ~size:256 in
  Bus.add_sram bus s;
  let seen = ref [] in
  Bus.on_store bus (fun a -> seen := a :: !seen);
  Bus.write bus ~width:1 (base + 13) 1;
  (* what the machine's capability store fires after its window write *)
  Bus.snoop_store bus (base + 20);
  Alcotest.(check (list int)) "granule-aligned snoops"
    [ base + 16; base + 8 ]
    !seen

(* Regression: [Bus.read]/[Bus.write] must range-check the {e full}
   access width.  A 4-byte access whose first byte is the last byte of
   an SRAM used to be routed into the region and crash with
   [Invalid_argument] from the byte-array layer; it must be a clean
   [Bus_error] (which the machine turns into an access fault).  An
   access straddling two {e adjacent} SRAMs is equally unroutable: no
   single region covers it. *)
let test_bus_boundary_straddle () =
  let bus = Bus.create () in
  let s = Sram.create ~base ~size:256 in
  Bus.add_sram bus s;
  let adjacent = Sram.create ~base:(base + 256) ~size:256 in
  Bus.add_sram bus adjacent;
  let faults f =
    try
      f ();
      false
    with
    | Bus.Bus_error _ -> true
    | Invalid_argument _ -> false
  in
  let last = base + 255 in
  Alcotest.(check bool) "4-byte read at last byte faults" true
    (faults (fun () -> ignore (Bus.read bus ~width:4 last)));
  Alcotest.(check bool) "4-byte write at last byte faults" true
    (faults (fun () -> Bus.write bus ~width:4 last 0));
  Alcotest.(check bool) "2-byte read at last byte faults" true
    (faults (fun () -> ignore (Bus.read bus ~width:2 last)));
  Alcotest.(check bool) "2-byte write at last byte faults" true
    (faults (fun () -> Bus.write bus ~width:2 last 0));
  (* straddling into an adjacent SRAM is still unroutable... *)
  Alcotest.(check bool) "read straddling adjacent SRAMs faults" true
    (faults (fun () -> ignore (Bus.read bus ~width:4 (last - 1))));
  (* ...while fully-inside accesses on either side work *)
  Bus.write bus ~width:4 (base + 252) 0xaabbccdd;
  Alcotest.(check int) "last word of first SRAM" 0xaabbccdd
    (Bus.read bus ~width:4 (base + 252));
  Bus.write bus ~width:4 (base + 256) 0x11223344;
  Alcotest.(check int) "first word of second SRAM" 0x11223344
    (Bus.read bus ~width:4 (base + 256))

(* MMIO device writes must not fire the store snoop: the snoop exists
   to invalidate cached translations of SRAM-resident code, and device
   registers can never back translated code (the block translator only
   reads SRAM).  Snooping them would only cause spurious
   invalidations. *)
let test_mmio_write_no_snoop () =
  let bus = Bus.create () in
  let s = Sram.create ~base ~size:256 in
  Bus.add_sram bus s;
  let dev, _backing = Mmio.ram_backed ~name:"dev" ~base:0x9000 ~size:16 in
  Bus.add_device bus dev;
  let seen = ref [] in
  Bus.on_store bus (fun a -> seen := a :: !seen);
  Bus.write bus ~width:4 0x9004 99;
  Alcotest.(check (list int)) "device write fires no snoop" [] !seen;
  Bus.write bus ~width:4 base 7;
  Alcotest.(check (list int)) "sram write still snoops" [ base ] !seen

let prop_sram_bytes =
  QCheck.Test.make ~name:"sram byte write/read" ~count:1000
    QCheck.(pair (int_bound 255) (int_bound 255))
    (fun (off, v) ->
      let s = Sram.create ~base ~size:256 in
      Sram.write8 s (base + off) v;
      Sram.read8 s (base + off) = v)

let prop_data_write_kills_tag =
  QCheck.Test.make ~name:"any data write into a granule clears its tag"
    ~count:1000
    QCheck.(pair (int_bound 31) (int_bound 2))
    (fun (g, w) ->
      let s = Sram.create ~base ~size:256 in
      let addr = base + (g land lnot 7) in
      QCheck.assume (addr + 8 <= base + 256);
      Sram.write_cap s addr (tagged 123L);
      let width = [| 1; 2; 4 |].(w) in
      let off = g land (8 - width) land lnot (width - 1) in
      (match width with
      | 1 -> Sram.write8 s (addr + off) 0
      | 2 -> Sram.write16 s (addr + off) 0
      | _ -> Sram.write32 s (addr + off) 0);
      not (Sram.tag_at s addr))

let suite =
  let q = QCheck_alcotest.to_alcotest in
  [
    Alcotest.test_case "read/write widths" `Quick test_rw_widths;
    Alcotest.test_case "capability tags + split micro-tags" `Quick
      test_cap_tags;
    Alcotest.test_case "fill/blit clear tags" `Quick test_fill_blit;
    Alcotest.test_case "revocation bitmap" `Quick test_revbits;
    Alcotest.test_case "revbits granule ablation" `Quick
      test_revbits_granule_ablation;
    Alcotest.test_case "bus routing" `Quick test_bus_routing;
    Alcotest.test_case "bus store snoop" `Quick test_bus_snoop;
    Alcotest.test_case "full-width range checks at region boundaries" `Quick
      test_bus_boundary_straddle;
    Alcotest.test_case "mmio writes bypass the store snoop" `Quick
      test_mmio_write_no_snoop;
    q prop_sram_bytes;
    q prop_data_write_kills_tag;
  ]
