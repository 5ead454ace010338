(* CPU time of the calling thread, in nanoseconds (see
   cpu_clock_stubs.c). A slice of simulation timed on it does not count
   the time the host gave to someone else. *)
external now : unit -> int = "e2e_thread_cpu_ns" [@@noalloc]
