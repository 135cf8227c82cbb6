(* Simulated results pinned at the baseline.  They are properties of the
   modelled hardware, not of the simulator's speed: a change that only
   speeds up the simulator must leave every one of them identical. *)

(* ISA program -> (simulated cycles, instructions, a0 checksum,
   Machine.run state hash, Perf.run state hash), jit tier (the reference
   tier is checked equal to it on every run).  Generated scenarios are
   not pinned: their inputs change with the seed. *)
let programs : (string * (int * int * int * string * string)) list =
  [
    ("coremark-cap-lf-ibex",
     (334284, 224465, 784460, "568657a9eeb52e98d86bde4682737137", "6ed648dc91e1a7b8edd7c9cad35cf4ce"));
    ("coremark-rv32e-ibex",
     (287244, 209585, 784460, "31d9ffdbf184641ac97685cbf8d3e35e", "cf27806bef0421b4eebb94ab0b40e672"));
    ("alloc-isa",
     (436804, 283405, 409600, "671728a786ea31b856496c58d5c3bc54", "7441e221e5c5d27f238121aa3aafde90"));
    ("iot-isa",
     (455804, 338605, 3222954876, "98c872aff359991678716c2d257980e0", "e3400327bfa9ef9f5dbba2ea6948e845"));
    ("table3 Flute RV32E",
     (148922, 104795, 392230, "9a685ff0eb0bb3b533520b4eed8fa181", "4f2f8f491d9f4dfba08345705d1a84ee"));
    ("table3 Flute +capabilities",
     (156362, 112235, 392230, "495189258d693a4d4cd97be2ed38ec60", "06d14b4eaf467163997e50ffc6afcdc5"));
    ("table3 Flute +load filter",
     (156362, 112235, 392230, "495189258d693a4d4cd97be2ed38ec60", "06d14b4eaf467163997e50ffc6afcdc5"));
    ("table3 Ibex RV32E",
     (143624, 104795, 392230, "9a685ff0eb0bb3b533520b4eed8fa181", "0be8288741641b72e81070a38ff1fa97"));
    ("table3 Ibex +capabilities",
     (161384, 112235, 392230, "495189258d693a4d4cd97be2ed38ec60", "205a7974615d5edcd249799deff465f1"));
    ("table3 Ibex +load filter",
     (167144, 112235, 392230, "495189258d693a4d4cd97be2ed38ec60", "0dbd93766d405298bfff9ac704cb703f"));
    ("image isolation",
     (232, 134, 66, "ed3539d7c8e2ca8c10e76d9b12256ba5", "96a710095ec26de78eb79605545017b7"));
    ("image demo",
     (110, 65, 42, "6bebba8e664ccdca578996c6fd5eed5d", "6ef4ef4dc3c1821ea23606a97cc48fdf"));
    ("image coremark",
     (16718, 11228, 39223, "ea7e922edda0742aceb67aad0be20b54", "6f0fa6a87425340f8742e41ef57fa06b"));
    ("image fleet-0",
     (16789, 11269, 39223, "1bcf61eafae7ad2c3fd776595d6773bb", "5f9344785fcc5ac3589aacaa4474fd45"));
    ("image fleet-1",
     (16789, 11269, 39223, "2471df08b6f3d781bcc9e63e6292128a", "df84cdd078568a2cf95c3249e148c590"));
    ("image fleet-2",
     (16789, 11269, 39223, "cdedf2d8097828652c63a275f8d8e947", "f81387071faeefcd8841ce4db28e4400"));
    ("image fleet-3",
     (16789, 11269, 39223, "0a164e69080767c0dc995e1744c3eb5b", "326df272747b17fe111852e1bfceffc4"));
    ("image fleet-4",
     (16789, 11269, 39223, "fa453d3b8ea1afdbf06684e0eee6bf84", "c36f68e0c36d0c4d005dc37195e3d745"));
    ("image fleet-5",
     (16789, 11269, 39223, "72004bf9b1da4675ef436e2415ba105d", "959ce020c51351963d6f39f3bee0722d"));
    ("image fleet-6",
     (16789, 11269, 39223, "b5374c913f0e65a8a5c234cf07690de4", "02fa1359b1228881aa5a50ba7fd2bbcf"));
    ("image fleet-7",
     (16789, 11269, 39223, "c0a84f38202d76cce0416545320d65fc", "c51d7ec16fb52ca8ba926421087ca539"));
  ]

(* Table 3 configuration -> (simulated cycles, checksum). *)
let table3 : (string * (int * int)) list =
  [
    ("Flute RV32E", (148922, 392230));
    ("Flute +capabilities", (156362, 392230));
    ("Flute +load filter", (156362, 392230));
    ("Ibex RV32E", (143624, 392230));
    ("Ibex +capabilities", (161384, 392230));
    ("Ibex +load filter", (167144, 392230));
  ]

(* MD5 of the Table 4 cycle grid (Flute then Ibex, sizes ascending, the
   eight configurations per row), by scale. *)
let table4 =
  [ ("full", "6f4f98085261b6aa50503612903eec95"); ("slice", "443d78b36dee1e2e78786e92a073a8c7") ]

(* IoT CPU load in %, by scale (60 simulated seconds full, 10 slice). *)
let iot = [ ("full", "17.532531634"); ("slice", "18.467417600") ]

(* Every number the ablations produce, comma-separated. *)
let ablations =
  "65537,32770,2287517,8,132096,2882301,16,66048,4071869,32,33024,6451005,64,16512,4096,2048,1024,1024,80,256,320,64,1280,8,10240"

(* MD5 of the sorted JSON audit report over the whole catalogue. *)
let audit = "984c1dff9bd9b52685d63948ee3c4502"
