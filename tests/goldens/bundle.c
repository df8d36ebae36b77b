/* Generated by the ARTEMIS monitor generator. DO NOT EDIT. */
#include <stdint.h>
#include "artemis/monitor.h"
#include "immortal/immortal.h"

#define collect_calcAvg_PRIORITY 0

typedef enum {
    collect_calcAvg_STATE_Counting = 0,
} collect_calcAvg_state_t;

typedef struct {
    collect_calcAvg_state_t state;
    int32_t i;
} collect_calcAvg_nv_t;

static __nv collect_calcAvg_nv_t collect_calcAvg_vars;

void collect_calcAvg_reset(void) {
    collect_calcAvg_vars.state = collect_calcAvg_STATE_Counting;
    collect_calcAvg_vars.i = 0;
}

void collect_calcAvg_step(const MonitorEvent_t *e, MonitorResult_t *r) {
    _begin(monitor);
    switch (collect_calcAvg_vars.state) {
    case collect_calcAvg_STATE_Counting:
        if (e->kind == EndTask && monitor_task_is(e, "bodyTemp")) {
            collect_calcAvg_vars.i = (collect_calcAvg_vars.i + 1);
            collect_calcAvg_vars.state = collect_calcAvg_STATE_Counting;
            break;
        }
        if ((e->kind == StartTask && monitor_task_is(e, "calcAvg")) && ((collect_calcAvg_vars.i >= 10))) {
            collect_calcAvg_vars.state = collect_calcAvg_STATE_Counting;
            break;
        }
        if ((e->kind == StartTask && monitor_task_is(e, "calcAvg")) && ((collect_calcAvg_vars.i < 10))) {
            monitor_report(r, ACTION_RESTARTPATH, 0);
            collect_calcAvg_vars.state = collect_calcAvg_STATE_Counting;
            break;
        }
        if (e->kind == EndTask && monitor_task_is(e, "calcAvg")) {
            collect_calcAvg_vars.i = 0;
            collect_calcAvg_vars.state = collect_calcAvg_STATE_Counting;
            break;
        }
        break;
    }
    _end(monitor);
}

/* Generated by the ARTEMIS monitor generator. DO NOT EDIT. */
#include <stdint.h>
#include "artemis/monitor.h"
#include "immortal/immortal.h"

#define dpData_calcAvg_PRIORITY 0

typedef enum {
    dpData_calcAvg_STATE_Watching = 0,
} dpData_calcAvg_state_t;

typedef struct {
    dpData_calcAvg_state_t state;
} dpData_calcAvg_nv_t;

static __nv dpData_calcAvg_nv_t dpData_calcAvg_vars;

void dpData_calcAvg_reset(void) {
    dpData_calcAvg_vars.state = dpData_calcAvg_STATE_Watching;
}

void dpData_calcAvg_step(const MonitorEvent_t *e, MonitorResult_t *r) {
    _begin(monitor);
    switch (dpData_calcAvg_vars.state) {
    case dpData_calcAvg_STATE_Watching:
        if ((e->kind == EndTask && monitor_task_is(e, "calcAvg")) && (((monitor_dep_data(e, "avgTemp") < 36.0) || (monitor_dep_data(e, "avgTemp") > 38.0)))) {
            monitor_report(r, ACTION_COMPLETEPATH, 0);
            dpData_calcAvg_vars.state = dpData_calcAvg_STATE_Watching;
            break;
        }
        break;
    }
    _end(monitor);
}

/* Generated by the ARTEMIS monitor generator. DO NOT EDIT. */
#include <stdint.h>
#include "artemis/monitor.h"
#include "immortal/immortal.h"

#define maxDuration_calcAvg_PRIORITY 0

typedef enum {
    maxDuration_calcAvg_STATE_NotStarted = 0,
    maxDuration_calcAvg_STATE_Started = 1,
} maxDuration_calcAvg_state_t;

typedef struct {
    maxDuration_calcAvg_state_t state;
    uint64_t start;
} maxDuration_calcAvg_nv_t;

static __nv maxDuration_calcAvg_nv_t maxDuration_calcAvg_vars;

void maxDuration_calcAvg_reset(void) {
    maxDuration_calcAvg_vars.state = maxDuration_calcAvg_STATE_NotStarted;
    maxDuration_calcAvg_vars.start = 0.0;
}

void maxDuration_calcAvg_step(const MonitorEvent_t *e, MonitorResult_t *r) {
    _begin(monitor);
    switch (maxDuration_calcAvg_vars.state) {
    case maxDuration_calcAvg_STATE_NotStarted:
        if (e->kind == StartTask && monitor_task_is(e, "calcAvg")) {
            maxDuration_calcAvg_vars.start = e->timestamp;
            maxDuration_calcAvg_vars.state = maxDuration_calcAvg_STATE_Started;
            break;
        }
        break;
    case maxDuration_calcAvg_STATE_Started:
        if ((e->kind == EndTask && monitor_task_is(e, "calcAvg")) && (((e->timestamp - maxDuration_calcAvg_vars.start) <= 0.1))) {
            maxDuration_calcAvg_vars.state = maxDuration_calcAvg_STATE_NotStarted;
            break;
        }
        if ((1) && (((e->timestamp - maxDuration_calcAvg_vars.start) > 0.1))) {
            monitor_report(r, ACTION_SKIPTASK, 0);
            maxDuration_calcAvg_vars.state = maxDuration_calcAvg_STATE_NotStarted;
            break;
        }
        break;
    }
    _end(monitor);
}

/* Generated by the ARTEMIS monitor generator. DO NOT EDIT. */
#include <stdint.h>
#include "artemis/monitor.h"
#include "immortal/immortal.h"

#define maxTries_micSense_PRIORITY 0

typedef enum {
    maxTries_micSense_STATE_NotStarted = 0,
    maxTries_micSense_STATE_Started = 1,
} maxTries_micSense_state_t;

typedef struct {
    maxTries_micSense_state_t state;
    int32_t i;
} maxTries_micSense_nv_t;

static __nv maxTries_micSense_nv_t maxTries_micSense_vars;

void maxTries_micSense_reset(void) {
    maxTries_micSense_vars.state = maxTries_micSense_STATE_NotStarted;
    maxTries_micSense_vars.i = 0;
}

void maxTries_micSense_step(const MonitorEvent_t *e, MonitorResult_t *r) {
    _begin(monitor);
    switch (maxTries_micSense_vars.state) {
    case maxTries_micSense_STATE_NotStarted:
        if (e->kind == StartTask && monitor_task_is(e, "micSense")) {
            maxTries_micSense_vars.i = 1;
            maxTries_micSense_vars.state = maxTries_micSense_STATE_Started;
            break;
        }
        break;
    case maxTries_micSense_STATE_Started:
        if ((e->kind == StartTask && monitor_task_is(e, "micSense")) && ((maxTries_micSense_vars.i < 10))) {
            maxTries_micSense_vars.i = (maxTries_micSense_vars.i + 1);
            maxTries_micSense_vars.state = maxTries_micSense_STATE_Started;
            break;
        }
        if ((e->kind == StartTask && monitor_task_is(e, "micSense")) && ((maxTries_micSense_vars.i >= 10))) {
            monitor_report(r, ACTION_SKIPPATH, 0);
            maxTries_micSense_vars.i = 0;
            maxTries_micSense_vars.state = maxTries_micSense_STATE_NotStarted;
            break;
        }
        if (e->kind == EndTask && monitor_task_is(e, "micSense")) {
            maxTries_micSense_vars.i = 0;
            maxTries_micSense_vars.state = maxTries_micSense_STATE_NotStarted;
            break;
        }
        break;
    }
    _end(monitor);
}

/* Generated by the ARTEMIS monitor generator. DO NOT EDIT. */
#include <stdint.h>
#include "artemis/monitor.h"
#include "immortal/immortal.h"

#define MITD_send_PRIORITY 0

typedef enum {
    MITD_send_STATE_WaitEndB = 0,
    MITD_send_STATE_WaitStartA = 1,
} MITD_send_state_t;

typedef struct {
    MITD_send_state_t state;
    uint64_t endB;
    int32_t att;
} MITD_send_nv_t;

static __nv MITD_send_nv_t MITD_send_vars;

void MITD_send_reset(void) {
    MITD_send_vars.state = MITD_send_STATE_WaitEndB;
    MITD_send_vars.endB = 0.0;
    MITD_send_vars.att = 0;
}

void MITD_send_step(const MonitorEvent_t *e, MonitorResult_t *r) {
    _begin(monitor);
    switch (MITD_send_vars.state) {
    case MITD_send_STATE_WaitEndB:
        if (e->kind == EndTask && monitor_task_is(e, "calcAvg")) {
            MITD_send_vars.endB = e->timestamp;
            MITD_send_vars.state = MITD_send_STATE_WaitStartA;
            break;
        }
        break;
    case MITD_send_STATE_WaitStartA:
        if (e->kind == EndTask && monitor_task_is(e, "calcAvg")) {
            MITD_send_vars.endB = e->timestamp;
            MITD_send_vars.state = MITD_send_STATE_WaitStartA;
            break;
        }
        if (e->kind == EndTask && monitor_task_is(e, "send")) {
            MITD_send_vars.att = 0;
            MITD_send_vars.state = MITD_send_STATE_WaitEndB;
            break;
        }
        if ((e->kind == StartTask && monitor_task_is(e, "send")) && (((e->timestamp - MITD_send_vars.endB) <= 4.0))) {
            MITD_send_vars.state = MITD_send_STATE_WaitStartA;
            break;
        }
        if ((e->kind == StartTask && monitor_task_is(e, "send")) && ((((e->timestamp - MITD_send_vars.endB) > 4.0) && (MITD_send_vars.att < 2)))) {
            MITD_send_vars.att = (MITD_send_vars.att + 1);
            monitor_report(r, ACTION_RESTARTPATH, 0);
            MITD_send_vars.state = MITD_send_STATE_WaitStartA;
            break;
        }
        if ((e->kind == StartTask && monitor_task_is(e, "send")) && ((((e->timestamp - MITD_send_vars.endB) > 4.0) && (MITD_send_vars.att >= 2)))) {
            MITD_send_vars.att = 0;
            monitor_report(r, ACTION_SKIPPATH, 0);
            MITD_send_vars.state = MITD_send_STATE_WaitEndB;
            break;
        }
        break;
    }
    _end(monitor);
}

/* Generated by the ARTEMIS monitor generator. DO NOT EDIT. */
#include <stdint.h>
#include "artemis/monitor.h"
#include "immortal/immortal.h"

#define period_bodyTemp_PRIORITY 0

typedef enum {
    period_bodyTemp_STATE_First = 0,
    period_bodyTemp_STATE_Running = 1,
} period_bodyTemp_state_t;

typedef struct {
    period_bodyTemp_state_t state;
    uint64_t last;
} period_bodyTemp_nv_t;

static __nv period_bodyTemp_nv_t period_bodyTemp_vars;

void period_bodyTemp_reset(void) {
    period_bodyTemp_vars.state = period_bodyTemp_STATE_First;
    period_bodyTemp_vars.last = 0.0;
}

void period_bodyTemp_step(const MonitorEvent_t *e, MonitorResult_t *r) {
    _begin(monitor);
    switch (period_bodyTemp_vars.state) {
    case period_bodyTemp_STATE_First:
        if (e->kind == StartTask && monitor_task_is(e, "bodyTemp")) {
            period_bodyTemp_vars.last = e->timestamp;
            period_bodyTemp_vars.state = period_bodyTemp_STATE_Running;
            break;
        }
        break;
    case period_bodyTemp_STATE_Running:
        if ((e->kind == StartTask && monitor_task_is(e, "bodyTemp")) && (((e->timestamp - period_bodyTemp_vars.last) <= 11.0))) {
            period_bodyTemp_vars.last = e->timestamp;
            period_bodyTemp_vars.state = period_bodyTemp_STATE_Running;
            break;
        }
        if ((e->kind == StartTask && monitor_task_is(e, "bodyTemp")) && (((e->timestamp - period_bodyTemp_vars.last) > 11.0))) {
            monitor_report(r, ACTION_RESTARTTASK, 0);
            period_bodyTemp_vars.last = e->timestamp;
            period_bodyTemp_vars.state = period_bodyTemp_STATE_Running;
            break;
        }
        break;
    }
    _end(monitor);
}

MonitorResult_t callMonitor(const MonitorEvent_t *e) {
    MonitorResult_t r = { ACTION_NONE, 0 };
    _begin(callMonitor);
    collect_calcAvg_step(e, &r);
    dpData_calcAvg_step(e, &r);
    maxDuration_calcAvg_step(e, &r);
    maxTries_micSense_step(e, &r);
    MITD_send_step(e, &r);
    period_bodyTemp_step(e, &r);
    _end(callMonitor);
    return r;
}

void resetMonitor(void) {
    collect_calcAvg_reset();
    dpData_calcAvg_reset();
    maxDuration_calcAvg_reset();
    maxTries_micSense_reset();
    MITD_send_reset();
    period_bodyTemp_reset();
}

void monitorFinalize(void) {
    /* resume any event handling interrupted by a power failure */
    immortal_resume(callMonitor);
}
