/* immortal/immortal.h — compile-only stand-in for the ImmortalThreads API.
 *
 * Declares exactly what the generated monitors use, so their C output
 * can be type-checked on a host without the MSP430 toolchain. The real
 * library places __nv data in FRAM, turns _begin/_end into a local
 * continuation persisted across power failures, and makes
 * immortal_resume(fn) re-enter fn's interrupted invocation with its
 * persisted arguments. Here they expand to nothing that runs. */
#ifndef IMMORTAL_IMMORTAL_H
#define IMMORTAL_IMMORTAL_H

#define __nv
#define _begin(fn)
#define _end(fn)
#define immortal_resume(fn) ((void)(fn))

#endif /* IMMORTAL_IMMORTAL_H */
