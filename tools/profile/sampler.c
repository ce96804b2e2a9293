/* LD_PRELOAD sampling profiler: SIGPROF at ~1 kHz of CPU time, frame-pointer
 * walk of the main thread, raw return addresses dumped at exit for
 * calltree.py. Needs a frame-pointer build (see README.md); x86-64 Linux.
 *
 *   gcc -O2 -shared -fPIC -o sampler.so sampler.c
 *   PROF_OUT=run.samples LD_PRELOAD=./sampler.so <program> <args>
 */
#define _GNU_SOURCE
#include <link.h>
#include <pthread.h>
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <sys/time.h>
#include <ucontext.h>

enum { DEPTH = 96, WORDS = 8 << 20 };    /* 64 MiB of samples at most */
static uintptr_t buf[WORDS], stack_top;  /* sample: pc, callers..., 0 */
static size_t used;

static void on_prof(int sig, siginfo_t *info, void *ctx) {
    const greg_t *regs = ((ucontext_t *)ctx)->uc_mcontext.gregs;
    uintptr_t fp = regs[REG_RBP], sp = regs[REG_RSP];
    (void)sig, (void)info;
    if (used + DEPTH + 2 > WORDS) return;
    buf[used++] = regs[REG_RIP];
    /* A frame is {caller's fp, return address}; frames climb the stack. */
    for (int d = 0; d < DEPTH && fp >= sp && fp + 16 <= stack_top && fp % 8 == 0; d++) {
        const uintptr_t *frame = (const uintptr_t *)fp;
        if (!frame[1]) break;
        buf[used++] = frame[1];
        if (frame[0] <= fp) break;
        fp = frame[0];
    }
    buf[used++] = 0;
}

static int main_bias(struct dl_phdr_info *info, size_t size, void *out) {
    (void)size;
    *(uintptr_t *)out = info->dlpi_addr;  /* first entry: the program */
    return 1;
}

__attribute__((destructor)) static void dump(void) {
    struct itimerval off = {{0, 0}, {0, 0}};
    uintptr_t bias = 0;
    const char *path = getenv("PROF_OUT");
    FILE *out = fopen(path ? path : "prof.samples", "w");
    setitimer(ITIMER_PROF, &off, NULL);
    if (!out) return;
    dl_iterate_phdr(main_bias, &bias);
    /* One sample a line, innermost first, addresses relative to the load
     * bias so addr2line can take them as they are. */
    for (size_t i = 0; i < used; i++)
        if (buf[i]) fprintf(out, "%lx ", (unsigned long)(buf[i] - bias));
        else fputc('\n', out);
    fclose(out);
}

__attribute__((constructor)) static void start(void) {
    struct itimerval tick = {{0, 1009}, {0, 1009}};  /* prime: no beat with loops */
    struct sigaction act = {.sa_sigaction = on_prof, .sa_flags = SA_SIGINFO | SA_RESTART};
    pthread_attr_t attr;
    void *base;
    size_t size;
    if (pthread_getattr_np(pthread_self(), &attr) != 0) return;
    pthread_attr_getstack(&attr, &base, &size);
    pthread_attr_destroy(&attr);
    stack_top = (uintptr_t)base + size;
    sigaction(SIGPROF, &act, NULL);
    setitimer(ITIMER_PROF, &tick, NULL);
}
