(* cheriot_sim: a command-line driver for the simulator.

   Subcommands:
     coremark   run the CoreMark-shaped suite on a chosen configuration
     alloc      run the allocation microbenchmark for one configuration
     iot        run the end-to-end IoT application
     demo       run a built-in demo program on the emulator with a trace

   Examples:
     cheriot_sim coremark --core ibex --cheri --load-filter
     cheriot_sim alloc --core flute --temporal hardware --hwm --size 1024
     cheriot_sim iot --seconds 10
     cheriot_sim demo --trace                                            *)

open Cmdliner
module Core_model = Cheriot_uarch.Core_model

let core_arg =
  let core =
    Arg.enum [ ("flute", Core_model.Flute); ("ibex", Core_model.Ibex) ]
  in
  Arg.(value & opt core Core_model.Ibex & info [ "core" ] ~doc:"flute or ibex")

(* Numeric options are validated while parsing, so an out-of-range value
   is a command-line error (exit 2) rather than a crash or a nonsense
   run. *)
let refine conv check =
  let parse s =
    Result.bind (Arg.conv_parser conv s) (fun v ->
        match check v with Ok () -> Ok v | Error e -> Error (`Msg e))
  in
  Arg.conv (parse, Arg.conv_printer conv)

let require what ok v = if ok v then Ok () else Error ("must be " ^ what)
let pos_int = refine Arg.int (require "a positive integer" (fun n -> n > 0))

(* --- coremark ---------------------------------------------------------- *)

let coremark core cheri load_filter iterations =
  Cheriot_workloads.Coremark.calibrate ();
  let r =
    Cheriot_workloads.Coremark.run ~iterations
      (Core_model.config ~cheri ~load_filter core)
  in
  Format.printf "%s %s%s: score %.3f, %d cycles, %d instructions, checksum 0x%x@."
    (Core_model.name core)
    (if cheri then "CHERIoT" else "RV32E")
    (if cheri && load_filter then "+filter" else "")
    r.Cheriot_workloads.Coremark.score r.cycles r.instructions r.checksum

let coremark_cmd =
  let cheri = Arg.(value & flag & info [ "cheri" ] ~doc:"capability build") in
  let filt =
    Arg.(value & flag & info [ "load-filter" ] ~doc:"enable the load filter")
  in
  let iters =
    Arg.(value & opt pos_int 10 & info [ "iterations" ] ~doc:"iterations")
  in
  Cmd.v
    (Cmd.info "coremark" ~doc:"run the CoreMark-shaped suite (Table 3)")
    Term.(const coremark $ core_arg $ cheri $ filt $ iters)

(* --- alloc ------------------------------------------------------------- *)

let alloc core temporal hwm size total =
  let r =
    Cheriot_workloads.Alloc_bench.run ~total
      { Cheriot_workloads.Alloc_bench.core; temporal; hwm }
      ~size
  in
  Format.printf
    "%s: %d cycles for %d bytes in %d-byte allocations (%d iterations, %d \
     sweeps, %d cycles revoking, %d bytes of stack zeroed)@."
    (Cheriot_workloads.Alloc_bench.config_name
       { Cheriot_workloads.Alloc_bench.core; temporal; hwm })
    r.Cheriot_workloads.Alloc_bench.cycles total size r.iterations r.sweeps
    r.sweep_cycles r.bytes_zeroed

let alloc_cmd =
  let temporal =
    let t =
      Arg.enum
        [
          ("baseline", Cheriot_rtos.Allocator.Baseline);
          ("metadata", Cheriot_rtos.Allocator.Metadata);
          ("software", Cheriot_rtos.Allocator.Software);
          ("hardware", Cheriot_rtos.Allocator.Hardware);
        ]
    in
    Arg.(
      value
      & opt t Cheriot_rtos.Allocator.Hardware
      & info [ "temporal" ] ~doc:"baseline|metadata|software|hardware")
  in
  let hwm =
    Arg.(value & flag & info [ "hwm" ] ~doc:"stack high-water mark assist")
  in
  let size =
    (* a size the benchmark heap cannot serve fails the parse with the
       allocator's message *)
    let size = refine pos_int Cheriot_workloads.Alloc_bench.check_size in
    Arg.(value & opt size 1024 & info [ "size" ] ~doc:"allocation size")
  in
  let total =
    Arg.(
      value & opt pos_int (1 lsl 20) & info [ "total" ] ~doc:"bytes of churn")
  in
  Cmd.v
    (Cmd.info "alloc" ~doc:"run the allocation microbenchmark (Table 4)")
    Term.(const alloc $ core_arg $ temporal $ hwm $ size $ total)

(* --- iot --------------------------------------------------------------- *)

let iot seconds =
  let r = Cheriot_workloads.Iot_app.run ~seconds () in
  Format.printf
    "CPU load %.1f%% over %.1fs; %d packets, %d JS frames, %d allocations, \
     %d sweeps@."
    r.Cheriot_workloads.Iot_app.cpu_load_percent r.seconds r.packets
    r.js_ticks r.allocations r.sweeps

let iot_cmd =
  let seconds =
    let seconds =
      refine Arg.float
        (require "positive and finite" (fun s -> Float.is_finite s && s > 0.))
    in
    Arg.(value & opt seconds 10.0 & info [ "seconds" ] ~doc:"simulated seconds")
  in
  Cmd.v
    (Cmd.info "iot" ~doc:"run the end-to-end IoT application (7.2.3)")
    Term.(const iot $ seconds)

(* --- demo -------------------------------------------------------------- *)

let demo trace dispatch =
  (* The two-compartment demo image from {!Cheriot_workloads.Firmware}
     (app calls svc.double(21) through the switcher), with optional
     instruction tracing.  Exits 1 unless the run halts with the
     service's answer, 42, in a0. *)
  let open Cheriot_isa in
  let t = Cheriot_workloads.Firmware.demo () in
  let m = t.Cheriot_rtos.Loader.machine in
  let result, steps =
    if trace then
      Trace.run m ~fuel:10_000 ~dispatch ~f:(fun e ->
          Format.printf "%a@." Trace.pp_entry e)
    else Machine.run ~fuel:10_000 ~dispatch m
  in
  match result with
  | Machine.Step_halted ->
      let a0 = Machine.reg_int m Insn.reg_a0 in
      Format.printf
        "halted after %d instructions; app received %d from the svc \
         compartment@."
        steps a0;
      if a0 <> 42 then begin
        Format.printf "expected 42@.";
        exit 1
      end
  | _ ->
      Format.printf "did not halt cleanly@.";
      exit 1

let demo_cmd =
  let trace =
    Arg.(value & flag & info [ "trace" ] ~doc:"print every instruction")
  in
  let dispatch =
    let d =
      Arg.enum
        [
          ("ref", Cheriot_isa.Machine.Dispatch_ref);
          ("jit", Cheriot_isa.Machine.Dispatch_jit);
        ]
    in
    Arg.(
      value
      & opt d Cheriot_isa.Machine.Dispatch_ref
      & info [ "dispatch" ]
          ~doc:
            "execution machinery: ref (re-decode every step) or jit \
             (chained translated basic blocks, hot blocks running \
             optimized check plans; traced transfers are marked [chain], \
             guard deoptimizations [opt-side-exit])")
  in
  Cmd.v
    (Cmd.info "demo"
       ~doc:"run a two-compartment demo through the machine-code switcher")
    Term.(const demo $ trace $ dispatch)

let () =
  let info =
    Cmd.info "cheriot_sim" ~version:"1.0"
      ~doc:"CHERIoT simulator driver (MICRO 2023 reproduction)"
  in
  (* A malformed command line exits 2, like every other error here
     (cmdliner's own default is 124). *)
  exit
    (match
       Cmd.eval_value
         (Cmd.group info [ coremark_cmd; alloc_cmd; iot_cmd; demo_cmd ])
     with
    | Ok (`Ok () | `Version | `Help) -> 0
    | Error (`Parse | `Term) -> 2
    | Error `Exn -> Cmd.Exit.internal_error)
