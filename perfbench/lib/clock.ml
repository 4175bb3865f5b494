(* The benchmark's one clock: seconds of CPU time this process has
   used, user plus system.  Still the program's own unscaled host
   seconds, but on a shared host it leaves out the time the process
   spent waiting for a CPU, so the same work reads the same time
   whatever else runs beside it.  The reading is a system call of about
   a microsecond, with microsecond resolution. *)

let now () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime
