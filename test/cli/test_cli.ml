(* Input errors at the gcs-cli boundary exit 2 with a message, before any
   simulation starts. *)

let cli = "../../bin/gcs_cli.exe"

(* Exit code and stderr of [gcs-cli args], stdout discarded. *)
let gcs_cli args =
  let err_file = Filename.temp_file "gcs_cli" ".err" in
  let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let err = Unix.openfile err_file [ Unix.O_WRONLY; Unix.O_TRUNC ] 0 in
  let pid =
    Unix.create_process cli (Array.of_list (cli :: args)) Unix.stdin null err
  in
  Unix.close null;
  Unix.close err;
  let _, status = Unix.waitpid [] pid in
  let stderr = In_channel.with_open_text err_file In_channel.input_all in
  Sys.remove err_file;
  match status with
  | Unix.WEXITED code -> (code, stderr)
  | _ -> Alcotest.failf "gcs-cli %s: killed" (String.concat " " args)

let contains s sub =
  let n = String.length s and k = String.length sub in
  let rec at i = i + k <= n && (String.sub s i k = sub || at (i + 1)) in
  at 0

let input_error ~mentions args () =
  let code, stderr = gcs_cli args in
  Alcotest.(check int) (String.concat " " args) 2 code;
  if not (contains stderr mentions) then
    Alcotest.failf "stderr does not mention %S:\n%s" mentions stderr

let test_valid_run () =
  let code, stderr = gcs_cli [ "run"; "-t"; "ring:4"; "--horizon"; "5" ] in
  Alcotest.(check int) ("valid run: " ^ stderr) 0 code

(* Every other subcommand that takes --horizon. *)
let horizon_commands =
  [
    [ "compare" ]; [ "external" ]; [ "faults" ]; [ "sweep" ]; [ "trace" ];
    [ "report" ]; [ "live" ]; [ "check"; "run" ]; [ "check"; "battery" ];
  ]

let horizon_cases =
  (* nan used to die in Metrics.summarize; inf and 1e308 never finished *)
  List.map
    (fun h ->
      Alcotest.test_case ("run --horizon " ^ h) `Quick
        (input_error ~mentions:"horizon" [ "run"; "--horizon=" ^ h ]))
    [ "nan"; "inf"; "1e308"; "0"; "-5" ]
  @ List.map
      (fun cmd ->
        let name = String.concat " " cmd in
        Alcotest.test_case (name ^ " --horizon nan") `Quick
          (input_error ~mentions:"horizon" (cmd @ [ "--horizon=nan" ])))
      horizon_commands

let topology_cases =
  List.map
    (fun t ->
      Alcotest.test_case ("run -t " ^ t) `Quick
        (input_error ~mentions:t [ "run"; "-t"; t ]))
    [ "ring:1"; "grid:0x3"; "torus:2x5"; "star:1"; "btree:-1"; "gnp:8:2" ]

let explore_cases =
  (* nan used to die in Metrics.summarize, inf and 1e300 never finished,
     quantum 0 died in Canon.state, quantum nan was accepted; depth 40
     printed a negative prefix count, depth 1000000 never finished *)
  List.map
    (fun (mentions, args) ->
      Alcotest.test_case ("explore " ^ String.concat " " args) `Quick
        (input_error ~mentions ("explore" :: args)))
    [
      ("segment_len", [ "--segment-len=nan" ]);
      ("segment_len", [ "--segment-len=inf" ]);
      ("segment_len", [ "--segment-len=1e300"; "--depth=1" ]);
      ("segment_len", [ "--segment-len=0" ]);
      ("quantum", [ "--dedup"; "--quantum=0" ]);
      ("quantum", [ "--quantum=nan" ]);
      ("quantum", [ "--quantum=inf" ]);
      ("prefixes", [ "--depth=40"; "--max-states=5" ]);
      ("depth", [ "--depth=1000000"; "--max-states=1" ]);
      ("depth", [ "--depth=0" ]);
    ]

let () =
  Alcotest.run "gcs-cli"
    [
      ("cli.horizon", horizon_cases);
      ("cli.topology", topology_cases);
      ("cli.explore", explore_cases);
      ("cli.valid", [ Alcotest.test_case "valid run exits 0" `Quick test_valid_run ]);
    ]
