/* A sampling profiler for boxes without `perf`: LD_PRELOAD this into any
 * dynamically linked program. A CPU-time interval timer raises SIGPROF;
 * the handler stores the call stack (return addresses, innermost first)
 * into a fixed array. At exit the samples and /proc/self/maps go to
 * $PROF_OUT for sym.py to turn into function names.
 *
 *   gcc -O2 -shared -fPIC -o prof.so prof.c
 *   LD_PRELOAD=$PWD/prof.so PROF_OUT=run.prof ./program args...
 *
 * The handler calls only backtrace(), which is not formally
 * async-signal-safe; the constructor calls it once first so its lazy
 * initialisation (loading libgcc) never happens inside a signal.
 */
#define _GNU_SOURCE
#include <execinfo.h>
#include <signal.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/time.h>

#define MAX_SAMPLES 200000
#define MAX_DEPTH 48

static void *frames[MAX_SAMPLES][MAX_DEPTH];
static int depths[MAX_SAMPLES];
static volatile int taken;
static int dropped;

static void on_prof(int sig) {
    (void)sig;
    if (taken >= MAX_SAMPLES) {
        dropped++;
        return;
    }
    int n = taken;
    depths[n] = backtrace(frames[n], MAX_DEPTH);
    taken = n + 1;
}

static void stop_timer(void) {
    struct itimerval off;
    memset(&off, 0, sizeof off);
    setitimer(ITIMER_PROF, &off, NULL);
}

static void dump(void) {
    stop_timer();
    const char *path = getenv("PROF_OUT");
    FILE *out = fopen(path ? path : "prof.out", "w");
    if (!out)
        return;
    FILE *maps = fopen("/proc/self/maps", "r");
    if (maps) {
        char line[1024];
        while (fgets(line, sizeof line, maps))
            fprintf(out, "M %s", line);
        fclose(maps);
    }
    fprintf(out, "D %d\n", dropped);
    for (int i = 0; i < taken; i++) {
        fputc('S', out);
        /* Frames 0 and 1 are this handler and the signal trampoline. */
        for (int d = 2; d < depths[i]; d++)
            fprintf(out, " %p", frames[i][d]);
        fputc('\n', out);
    }
    fclose(out);
}

__attribute__((constructor)) static void start(void) {
    void *warm[4];
    backtrace(warm, 4);

    struct sigaction sa;
    memset(&sa, 0, sizeof sa);
    sa.sa_handler = on_prof;
    sa.sa_flags = SA_RESTART;
    sigemptyset(&sa.sa_mask);
    sigaction(SIGPROF, &sa, NULL);
    atexit(dump);

    /* 1 ms asked for; the kernel rounds up to its tick (4 ms at HZ=250). */
    struct itimerval every;
    every.it_interval.tv_sec = 0;
    every.it_interval.tv_usec = 1000;
    every.it_value = every.it_interval;
    setitimer(ITIMER_PROF, &every, NULL);
}
