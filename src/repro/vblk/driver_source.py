'''The vblk virtio-style block driver, in mini-C (multi-queue).

The second guarded workload: where e1000e exercises a unidirectional
descriptor ring, vblk exercises the split-virtqueue shape — a request
descriptor table plus paired avail/used index rings — with *mixed*
read/write/flush submission and ISR-context completion harvesting.  The
guarded access patterns are the ones the paper calls out (§4): construct
request descriptors, queue them through the avail ring, ring MMIO
doorbells, and walk the used ring from interrupt context.

Since the multi-queue rework the driver is NVMe-shaped: queue block 0
is the admin pair, blocks 1..4 are per-CPU I/O pairs brought into
service by CREATE_IOQ admin commands at probe.  Submission takes an
explicit queue id and touches only that queue's rings — no cross-queue
locking, no shared ring state.  Per-queue state lives in *named*
struct fields (``aq``, ``q1``..``q4``) rather than an array, so every
ring pointer stays a contracted dotted field path the -O3 abstract
interpreter can resolve; queue-id dispatch is an if-chain over a
bounded (ArgContract'd) index, which joins to a single contract
interval per area.

The exact same source compiles as the baseline (no transform) and the
protected module, mirroring §4.1.
'''

DRIVER_NAME = "vblk"

DRIVER_SOURCE = r"""
/* vblk: multi-queue virtio-style block driver for the simulated device. */

enum {
    REG_VCTL   = 0x0000,
    REG_VSTS   = 0x0004,
    REG_CAP    = 0x0008,
    REG_VNQMAX = 0x000C,
    REG_VICR   = 0x0010,
    REG_VIMS   = 0x0014,
    REG_VIMC   = 0x0018,
    REG_VNQ    = 0x001C
};

/* Queue register blocks: block q at QBASE + q * QSTRIDE (NVMe doorbell
   stride idiom; block 0 = admin pair, blocks 1..NQ_MAX = I/O pairs). */
enum {
    QBASE     = 0x0020,
    QSTRIDE   = 0x0040,
    QOFF_DTBAL = 0x00,
    QOFF_DTBAH = 0x04,
    QOFF_DTLEN = 0x08,
    QOFF_AVBAL = 0x10,
    QOFF_AVBAH = 0x14,
    QOFF_AVH   = 0x18,
    QOFF_AVT   = 0x1C,
    QOFF_UBAL  = 0x20,
    QOFF_UBAH  = 0x24,
    QOFF_UH    = 0x28,
    QOFF_UT    = 0x2C,
    QOFF_VICR  = 0x30
};

enum {
    VCTL_RST   = 1 << 0,
    VCTL_EN    = 1 << 1,
    VSTS_READY = 1 << 0,
    VICR_Q0    = 1 << 0,
    VICR_Q1    = 1 << 1,
    VICR_Q2    = 1 << 2,
    VICR_Q3    = 1 << 3,
    VICR_Q4    = 1 << 4
};

enum {
    VDESC_SIZE    = 32,
    QUEUE_ENTRIES = 64,
    NQ_MAX        = 4,
    SECTOR_SIZE   = 512,
    MAX_IO_BYTES  = 4096,
    OP_READ       = 0,
    OP_WRITE      = 1,
    OP_FLUSH      = 2,
    OP_CREATE_IOQ = 3,
    OP_DELETE_IOQ = 4,
    STA_DD        = 0x01,
    STA_ERR       = 0x02,
    BAR_SIZE      = 0x1000
};

enum {   /* errno values the stack understands */
    EINVAL = 22,
    EBUSY  = 16,
    ENODEV = 19,
    EIO    = 5
};

extern void *kmalloc(long size, int flags);
extern void kfree(void *p);
extern int printk(char *fmt, ...);
extern long ioremap(long phys, long size);
extern long virt_to_phys(void *p);
extern void udelay(long usec);
extern int request_irq(int line, char *handler);
extern void free_irq(int line);
extern int register_chrdev(char *path, char *handler);
extern int unregister_chrdev(char *path);

struct vblk_queue {
    long desc_virt;        /* descriptor table base (kernel virtual) */
    long avail_virt;       /* avail ring: u32 indexes, driver -> device */
    long used_virt;        /* used ring: u32 indexes, device -> driver */
    int  next_to_use;
    int  next_to_clean;
    int  used_head;
    long submitted;        /* per-queue I/O submissions */
    long completed;        /* per-queue harvested completions */
};

struct vblk_stats {
    long reads;
    long writes;
    long flushes;
    long read_bytes;
    long write_bytes;
    long errors;
    long busy;
    long completions;
    long data_sig;
};

struct vblk_dev {
    long mmio;             /* ioremapped BAR0 */
    long mmio_phys;
    long capacity;         /* sectors */
    int  nq;               /* I/O queue pairs in service (0 = legacy) */
    struct vblk_queue aq;  /* admin / legacy queue pair (block 0) */
    struct vblk_queue q1;  /* per-CPU I/O pairs (blocks 1..4) */
    struct vblk_queue q2;
    struct vblk_queue q3;
    struct vblk_queue q4;
    struct vblk_stats stats;
    int  up;
    long irq_count;
    int  irq0;             /* requested vector per queue block (0 = none) */
    int  irq1;
    int  irq2;
    int  irq3;
    int  irq4;
};

struct vblk_dev vdev;

/* ---- register accessors (each is a guarded MMIO load/store) ---------- */

static int qreg(int qi, int off) {
    return QBASE + qi * QSTRIDE + off;
}

static unsigned int vr32(int reg) {
    unsigned int *p = (unsigned int *)(vdev.mmio + (long)reg);
    return *p;
}

static void vw32(int reg, unsigned int val) {
    unsigned int *p = (unsigned int *)(vdev.mmio + (long)reg);
    *p = val;
}

/* ---- queue-state accessors -------------------------------------------
   Per-queue state lives in named fields so every ring pointer is a
   contracted field path; dispatch is an if-chain over the (bounded)
   queue id.  Unknown ids fall back to the admin queue. */

static long q_desc(int qi) {
    if (qi == 1) { return vdev.q1.desc_virt; }
    if (qi == 2) { return vdev.q2.desc_virt; }
    if (qi == 3) { return vdev.q3.desc_virt; }
    if (qi == 4) { return vdev.q4.desc_virt; }
    return vdev.aq.desc_virt;
}

static long q_avail(int qi) {
    if (qi == 1) { return vdev.q1.avail_virt; }
    if (qi == 2) { return vdev.q2.avail_virt; }
    if (qi == 3) { return vdev.q3.avail_virt; }
    if (qi == 4) { return vdev.q4.avail_virt; }
    return vdev.aq.avail_virt;
}

static long q_used(int qi) {
    if (qi == 1) { return vdev.q1.used_virt; }
    if (qi == 2) { return vdev.q2.used_virt; }
    if (qi == 3) { return vdev.q3.used_virt; }
    if (qi == 4) { return vdev.q4.used_virt; }
    return vdev.aq.used_virt;
}

static int q_ntu(int qi) {
    if (qi == 1) { return vdev.q1.next_to_use; }
    if (qi == 2) { return vdev.q2.next_to_use; }
    if (qi == 3) { return vdev.q3.next_to_use; }
    if (qi == 4) { return vdev.q4.next_to_use; }
    return vdev.aq.next_to_use;
}

static void q_set_ntu(int qi, int v) {
    if (qi == 1) { vdev.q1.next_to_use = v; return; }
    if (qi == 2) { vdev.q2.next_to_use = v; return; }
    if (qi == 3) { vdev.q3.next_to_use = v; return; }
    if (qi == 4) { vdev.q4.next_to_use = v; return; }
    vdev.aq.next_to_use = v;
}

static int q_ntc(int qi) {
    if (qi == 1) { return vdev.q1.next_to_clean; }
    if (qi == 2) { return vdev.q2.next_to_clean; }
    if (qi == 3) { return vdev.q3.next_to_clean; }
    if (qi == 4) { return vdev.q4.next_to_clean; }
    return vdev.aq.next_to_clean;
}

static void q_set_ntc(int qi, int v) {
    if (qi == 1) { vdev.q1.next_to_clean = v; return; }
    if (qi == 2) { vdev.q2.next_to_clean = v; return; }
    if (qi == 3) { vdev.q3.next_to_clean = v; return; }
    if (qi == 4) { vdev.q4.next_to_clean = v; return; }
    vdev.aq.next_to_clean = v;
}

static int q_uhead(int qi) {
    if (qi == 1) { return vdev.q1.used_head; }
    if (qi == 2) { return vdev.q2.used_head; }
    if (qi == 3) { return vdev.q3.used_head; }
    if (qi == 4) { return vdev.q4.used_head; }
    return vdev.aq.used_head;
}

static void q_set_uhead(int qi, int v) {
    if (qi == 1) { vdev.q1.used_head = v; return; }
    if (qi == 2) { vdev.q2.used_head = v; return; }
    if (qi == 3) { vdev.q3.used_head = v; return; }
    if (qi == 4) { vdev.q4.used_head = v; return; }
    vdev.aq.used_head = v;
}

static void q_count_submit(int qi) {
    if (qi == 1) { vdev.q1.submitted += 1; return; }
    if (qi == 2) { vdev.q2.submitted += 1; return; }
    if (qi == 3) { vdev.q3.submitted += 1; return; }
    if (qi == 4) { vdev.q4.submitted += 1; return; }
    vdev.aq.submitted += 1;
}

static void q_count_complete(int qi) {
    if (qi == 1) { vdev.q1.completed += 1; return; }
    if (qi == 2) { vdev.q2.completed += 1; return; }
    if (qi == 3) { vdev.q3.completed += 1; return; }
    if (qi == 4) { vdev.q4.completed += 1; return; }
    vdev.aq.completed += 1;
}

/* ---- descriptor helpers ---------------------------------------------- */

static void vblk_fill_desc(long base, long sector, long buf_phys, int len,
                           int op) {
    long *sec_p = (long *)base;
    *sec_p = sector;
    long *buf_p = (long *)(base + 8);
    *buf_p = buf_phys;
    unsigned int *len_p = (unsigned int *)(base + 16);
    *len_p = (unsigned int)len;
    unsigned short *op_p = (unsigned short *)(base + 20);
    *op_p = (unsigned short)op;
    unsigned char *sta_p = (unsigned char *)(base + 22);
    *sta_p = 0;
    unsigned char *pad_p = (unsigned char *)(base + 23);
    *pad_p = 0;
    long *rsv_p = (long *)(base + 24);
    *rsv_p = 0;
}

static int vblk_ring_next(int idx) {
    idx = idx + 1;
    if (idx >= QUEUE_ENTRIES) {
        idx = 0;
    }
    return idx;
}

static int vblk_ring_space(int qi) {
    int used = q_ntu(qi) - q_ntc(qi);
    if (used < 0) {
        used += QUEUE_ENTRIES;
    }
    return QUEUE_ENTRIES - 1 - used;
}

/* ---- completion harvest (used-ring driven, runs from the ISR) -------- */

__export int vblk_poll_q(int qi) {
    int cleaned = 0;
    int ut = (int)vr32(qreg(qi, QOFF_UT));
    int uh = q_uhead(qi);
    long desc_base = q_desc(qi);
    long used_base = q_used(qi);
    while (uh != ut) {
        /* Each queue completes its own stream in submission order: the
           descriptor being retired is next_to_clean; the used-ring
           entry confirms it. */
        int idx = q_ntc(qi);
        unsigned int *slot_p = (unsigned int *)(used_base + (long)uh * 4);
        if ((int)*slot_p != idx) {
            vdev.stats.errors += 1;
        }
        unsigned char *sta_p = (unsigned char *)(desc_base
                                                 + (long)idx * VDESC_SIZE
                                                 + 22);
        int status = (int)*sta_p;
        if (status & STA_ERR) {
            vdev.stats.errors += 1;
        }
        *sta_p = 0;
        unsigned short *op_p = (unsigned short *)(desc_base
                                                  + (long)idx * VDESC_SIZE
                                                  + 20);
        int op = (int)*op_p;
        q_set_ntc(qi, vblk_ring_next(idx));
        /* The global completion counter tracks I/O; admin-command
           retirements show up only in the per-queue counters. */
        if (op <= OP_FLUSH) {
            vdev.stats.completions += 1;
        }
        q_count_complete(qi);
        uh = uh + 1;
        if (uh >= QUEUE_ENTRIES) {
            uh = 0;
        }
        cleaned = cleaned + 1;
    }
    q_set_uhead(qi, uh);
    vw32(qreg(qi, QOFF_UH), (unsigned int)uh);
    return cleaned;
}

/* Harvest every queue in service (admin first, then I/O in id order). */
__export int vblk_poll(void) {
    int cleaned = vblk_poll_q(0);
    if (vdev.nq >= 1) { cleaned += vblk_poll_q(1); }
    if (vdev.nq >= 2) { cleaned += vblk_poll_q(2); }
    if (vdev.nq >= 3) { cleaned += vblk_poll_q(3); }
    if (vdev.nq >= 4) { cleaned += vblk_poll_q(4); }
    return cleaned;
}

/* ---- queue setup ------------------------------------------------------ */

static int vblk_alloc_queue(int qi) {
    long desc_bytes = (long)QUEUE_ENTRIES * VDESC_SIZE;
    long ring_bytes = (long)QUEUE_ENTRIES * 4;
    long desc = (long)kmalloc(desc_bytes, 0);
    long avail = (long)kmalloc(ring_bytes, 0);
    long used = (long)kmalloc(ring_bytes, 0);
    if (desc == 0 || avail == 0 || used == 0) {
        return -EINVAL;
    }
    if (qi == 1) {
        vdev.q1.desc_virt = desc;
        vdev.q1.avail_virt = avail;
        vdev.q1.used_virt = used;
    }
    if (qi == 2) {
        vdev.q2.desc_virt = desc;
        vdev.q2.avail_virt = avail;
        vdev.q2.used_virt = used;
    }
    if (qi == 3) {
        vdev.q3.desc_virt = desc;
        vdev.q3.avail_virt = avail;
        vdev.q3.used_virt = used;
    }
    if (qi == 4) {
        vdev.q4.desc_virt = desc;
        vdev.q4.avail_virt = avail;
        vdev.q4.used_virt = used;
    }
    if (qi == 0) {
        vdev.aq.desc_virt = desc;
        vdev.aq.avail_virt = avail;
        vdev.aq.used_virt = used;
    }
    /* Zero everything (guarded stores — driver-touched memory). */
    long *p = (long *)q_desc(qi);
    for (long i = 0; i < desc_bytes / 8; i++) {
        p[i] = 0;
    }
    long *a = (long *)q_avail(qi);
    for (long i = 0; i < ring_bytes / 8; i++) {
        a[i] = 0;
    }
    long *u = (long *)q_used(qi);
    for (long i = 0; i < ring_bytes / 8; i++) {
        u[i] = 0;
    }
    q_set_ntu(qi, 0);
    q_set_ntc(qi, 0);
    q_set_uhead(qi, 0);
    return 0;
}

/* Program queue block qi's ring registers from its allocated state. */
static void vblk_program_queue(int qi) {
    long desc_phys = virt_to_phys((void *)q_desc(qi));
    long avail_phys = virt_to_phys((void *)q_avail(qi));
    long used_phys = virt_to_phys((void *)q_used(qi));
    vw32(qreg(qi, QOFF_DTBAL), (unsigned int)(desc_phys & 0xFFFFFFFF));
    vw32(qreg(qi, QOFF_DTBAH), (unsigned int)(desc_phys >> 32));
    vw32(qreg(qi, QOFF_DTLEN), (unsigned int)(QUEUE_ENTRIES * VDESC_SIZE));
    vw32(qreg(qi, QOFF_AVBAL), (unsigned int)(avail_phys & 0xFFFFFFFF));
    vw32(qreg(qi, QOFF_AVBAH), (unsigned int)(avail_phys >> 32));
    vw32(qreg(qi, QOFF_AVH), 0);
    vw32(qreg(qi, QOFF_AVT), 0);
    vw32(qreg(qi, QOFF_UBAL), (unsigned int)(used_phys & 0xFFFFFFFF));
    vw32(qreg(qi, QOFF_UBAH), (unsigned int)(used_phys >> 32));
    vw32(qreg(qi, QOFF_UH), 0);
}

/* Submit one admin command on queue 0 and harvest its completion (the
   device retires admin commands at the doorbell, without media time). */
static int vblk_admin_cmd(int op, long qid) {
    if (vblk_ring_space(0) < 1) {
        vblk_poll_q(0);
        if (vblk_ring_space(0) < 1) {
            return -EBUSY;
        }
    }
    int idx = q_ntu(0);
    vblk_fill_desc(vdev.aq.desc_virt + (long)idx * VDESC_SIZE,
                   qid, 0, 0, op);
    unsigned int *slot_p = (unsigned int *)(vdev.aq.avail_virt
                                            + (long)idx * 4);
    *slot_p = (unsigned int)idx;
    q_set_ntu(0, vblk_ring_next(idx));
    long errs = vdev.stats.errors;
    vw32(qreg(0, QOFF_AVT), (unsigned int)q_ntu(0));
    vblk_poll_q(0);
    if (vdev.stats.errors != errs) {
        return -EIO;
    }
    return 0;
}

/* Allocate + register + CREATE an I/O queue pair (NVMe ordering). */
static int vblk_bringup_ioq(int qi) {
    int rc = vblk_alloc_queue(qi);
    if (rc != 0) {
        return rc;
    }
    vblk_program_queue(qi);
    return vblk_admin_cmd(OP_CREATE_IOQ, (long)qi);
}

static void vblk_reset_hw(void) {
    vw32(REG_VCTL, VCTL_RST);
    udelay(10);
}

/* ---- probe / remove --------------------------------------------------- */

__export int vblk_probe(long mmio_phys, int nq) {
    vdev.mmio_phys = mmio_phys;
    vdev.mmio = ioremap(mmio_phys, BAR_SIZE);
    if (vdev.mmio == 0) {
        return -ENODEV;
    }
    vblk_reset_hw();
    vdev.capacity = (long)vr32(REG_CAP);
    if (vdev.capacity == 0) {
        printk("vblk: no media");
        return -ENODEV;
    }
    if (nq < 1 || nq > NQ_MAX || nq > (int)vr32(REG_VNQMAX)) {
        return -EINVAL;
    }
    /* Admin/legacy pair first: rings, registers, engine enable. */
    int rc = vblk_alloc_queue(0);
    if (rc != 0) {
        return rc;
    }
    vblk_program_queue(0);
    vw32(REG_VCTL, VCTL_EN);
    unsigned int sts = vr32(REG_VSTS);
    if ((sts & VSTS_READY) == 0) {
        printk("vblk: device not ready");
        return -ENODEV;
    }
    /* Then each I/O pair, activated through the admin queue. */
    if (nq >= 1) {
        rc = vblk_bringup_ioq(1);
        if (rc != 0) { return rc; }
    }
    if (nq >= 2) {
        rc = vblk_bringup_ioq(2);
        if (rc != 0) { return rc; }
    }
    if (nq >= 3) {
        rc = vblk_bringup_ioq(3);
        if (rc != 0) { return rc; }
    }
    if (nq >= 4) {
        rc = vblk_bringup_ioq(4);
        if (rc != 0) { return rc; }
    }
    if ((int)vr32(REG_VNQ) != nq) {
        printk("vblk: queue bringup mismatch");
        return -EIO;
    }
    vdev.nq = nq;
    if (register_chrdev("/dev/vblk0", "vblk_ioctl") != 0) {
        return -EINVAL;
    }
    vdev.up = 1;
    printk("vblk: probe ok, mmio %lx cap %lx sectors, %lx io queues",
           vdev.mmio, vdev.capacity, (long)nq);
    return 0;
}

static void vblk_free_queue(int qi) {
    if (q_desc(qi) != 0) {
        kfree((void *)q_desc(qi));
        kfree((void *)q_avail(qi));
        kfree((void *)q_used(qi));
    }
    if (qi == 1) { vdev.q1.desc_virt = 0; vdev.q1.avail_virt = 0;
                   vdev.q1.used_virt = 0; return; }
    if (qi == 2) { vdev.q2.desc_virt = 0; vdev.q2.avail_virt = 0;
                   vdev.q2.used_virt = 0; return; }
    if (qi == 3) { vdev.q3.desc_virt = 0; vdev.q3.avail_virt = 0;
                   vdev.q3.used_virt = 0; return; }
    if (qi == 4) { vdev.q4.desc_virt = 0; vdev.q4.avail_virt = 0;
                   vdev.q4.used_virt = 0; return; }
    vdev.aq.desc_virt = 0; vdev.aq.avail_virt = 0; vdev.aq.used_virt = 0;
}

__export int vblk_remove(void) {
    if (!vdev.up) {
        return -ENODEV;
    }
    vdev.up = 0;
    /* Retire the I/O pairs through the admin queue, then stop the
       engine and release every ring. */
    if (vdev.nq >= 1) { vblk_admin_cmd(OP_DELETE_IOQ, 1); }
    if (vdev.nq >= 2) { vblk_admin_cmd(OP_DELETE_IOQ, 2); }
    if (vdev.nq >= 3) { vblk_admin_cmd(OP_DELETE_IOQ, 3); }
    if (vdev.nq >= 4) { vblk_admin_cmd(OP_DELETE_IOQ, 4); }
    vw32(REG_VCTL, 0);
    vw32(REG_VIMC, 0xFFFFFFFF);
    unregister_chrdev("/dev/vblk0");
    if (vdev.nq >= 1) { vblk_free_queue(1); }
    if (vdev.nq >= 2) { vblk_free_queue(2); }
    if (vdev.nq >= 3) { vblk_free_queue(3); }
    if (vdev.nq >= 4) { vblk_free_queue(4); }
    vblk_free_queue(0);
    vdev.nq = 0;
    printk("vblk: removed");
    return 0;
}

/* ---- the hot path: submit one request on one queue -------------------- */

__export int vblk_submit_io(void *data, long sector, int len, int op,
                            int qi) {
    if (!vdev.up) {
        vdev.stats.errors += 1;
        return -ENODEV;
    }
    if (qi < 1 || qi > vdev.nq) {
        vdev.stats.errors += 1;
        return -EINVAL;
    }
    if (op < OP_READ || op > OP_FLUSH) {
        vdev.stats.errors += 1;
        return -EINVAL;
    }
    if (op == OP_FLUSH) {
        if (len != 0) {
            vdev.stats.errors += 1;
            return -EINVAL;
        }
    } else {
        if (len < SECTOR_SIZE || len > MAX_IO_BYTES) {
            vdev.stats.errors += 1;
            return -EINVAL;
        }
        if (sector < 0 || sector + (long)(len / SECTOR_SIZE) > vdev.capacity) {
            vdev.stats.errors += 1;
            return -EINVAL;
        }
    }
    if (vblk_ring_space(qi) < 1) {
        /* Opportunistic harvest of THIS queue before declaring it full
           (never touches a sibling queue's rings). */
        vblk_poll_q(qi);
        if (vblk_ring_space(qi) < 1) {
            vdev.stats.busy += 1;
            return -EBUSY;
        }
    }
    /* Fold the first payload word into the running signature (a guarded
       load through the request buffer, like checksumming a bio). */
    if (op == OP_WRITE) {
        long *word = (long *)data;
        vdev.stats.data_sig += *word;
    }
    int idx = q_ntu(qi);
    long buf_phys = 0;
    if (op != OP_FLUSH) {
        buf_phys = virt_to_phys(data);
    }
    vblk_fill_desc(q_desc(qi) + (long)idx * VDESC_SIZE,
                   sector, buf_phys, len, op);
    /* Post the index on this queue's avail ring, then ring ITS doorbell. */
    unsigned int *slot_p = (unsigned int *)(q_avail(qi) + (long)idx * 4);
    *slot_p = (unsigned int)idx;
    q_set_ntu(qi, vblk_ring_next(idx));
    q_count_submit(qi);
    if (op == OP_READ) {
        vdev.stats.reads += 1;
        vdev.stats.read_bytes += len;
    }
    if (op == OP_WRITE) {
        vdev.stats.writes += 1;
        vdev.stats.write_bytes += len;
    }
    if (op == OP_FLUSH) {
        vdev.stats.flushes += 1;
    }
    vw32(qreg(qi, QOFF_AVT), (unsigned int)q_ntu(qi));
    /* Amortized harvest when this queue runs more than half full. */
    if (vblk_ring_space(qi) < QUEUE_ENTRIES / 2) {
        vblk_poll_q(qi);
    }
    return 0;
}

/* ---- interrupt mode --------------------------------------------------- */

/* Legacy aggregate ISR: read-to-clear VICR (clears exactly the causes
   observed), then harvest every queue whose bit was set. */
__export int vblk_intr(int line) {
    unsigned int icr = vr32(REG_VICR);
    if (icr == 0) {
        return 0;           /* not ours / spurious */
    }
    vdev.irq_count += 1;
    if (icr & VICR_Q0) { vblk_poll_q(0); }
    if (icr & VICR_Q1) { vblk_poll_q(1); }
    if (icr & VICR_Q2) { vblk_poll_q(2); }
    if (icr & VICR_Q3) { vblk_poll_q(3); }
    if (icr & VICR_Q4) { vblk_poll_q(4); }
    return 1;
}

/* Per-queue MSI-X-style ISRs: each reads its OWN cause register
   (QVICR, read-to-clear of that bit only) so concurrent vectors can
   never wipe each other's pending causes. */

__export int vblk_intr_a(int line) {
    unsigned int icr = vr32(qreg(0, QOFF_VICR));
    if (icr == 0) { return 0; }
    vdev.irq_count += 1;
    vblk_poll_q(0);
    return 1;
}

__export int vblk_intr_q1(int line) {
    unsigned int icr = vr32(qreg(1, QOFF_VICR));
    if (icr == 0) { return 0; }
    vdev.irq_count += 1;
    vblk_poll_q(1);
    return 1;
}

__export int vblk_intr_q2(int line) {
    unsigned int icr = vr32(qreg(2, QOFF_VICR));
    if (icr == 0) { return 0; }
    vdev.irq_count += 1;
    vblk_poll_q(2);
    return 1;
}

__export int vblk_intr_q3(int line) {
    unsigned int icr = vr32(qreg(3, QOFF_VICR));
    if (icr == 0) { return 0; }
    vdev.irq_count += 1;
    vblk_poll_q(3);
    return 1;
}

__export int vblk_intr_q4(int line) {
    unsigned int icr = vr32(qreg(4, QOFF_VICR));
    if (icr == 0) { return 0; }
    vdev.irq_count += 1;
    vblk_poll_q(4);
    return 1;
}

/* Legacy single-vector enable: everything through vblk_intr. */
__export int vblk_irq_enable(int line) {
    if (request_irq(line, "vblk_intr") != 0) {
        return -EINVAL;
    }
    vdev.irq0 = line;
    vw32(REG_VIMS, VICR_Q0 | VICR_Q1 | VICR_Q2 | VICR_Q3 | VICR_Q4);
    return 0;
}

/* Per-queue vector enable: queue block qi's completions on `line`. */
__export int vblk_irq_enable_q(int qi, int line) {
    int rc = -EINVAL;
    if (qi == 0) { rc = request_irq(line, "vblk_intr_a"); }
    if (qi == 1) { rc = request_irq(line, "vblk_intr_q1"); }
    if (qi == 2) { rc = request_irq(line, "vblk_intr_q2"); }
    if (qi == 3) { rc = request_irq(line, "vblk_intr_q3"); }
    if (qi == 4) { rc = request_irq(line, "vblk_intr_q4"); }
    if (rc != 0) {
        return -EINVAL;
    }
    if (qi == 0) { vdev.irq0 = line; vw32(REG_VIMS, VICR_Q0); }
    if (qi == 1) { vdev.irq1 = line; vw32(REG_VIMS, VICR_Q1); }
    if (qi == 2) { vdev.irq2 = line; vw32(REG_VIMS, VICR_Q2); }
    if (qi == 3) { vdev.irq3 = line; vw32(REG_VIMS, VICR_Q3); }
    if (qi == 4) { vdev.irq4 = line; vw32(REG_VIMS, VICR_Q4); }
    return 0;
}

__export int vblk_irq_disable(void) {
    vw32(REG_VIMC, 0xFFFFFFFF);
    if (vdev.irq0 != 0) { free_irq(vdev.irq0); vdev.irq0 = 0; }
    if (vdev.irq1 != 0) { free_irq(vdev.irq1); vdev.irq1 = 0; }
    if (vdev.irq2 != 0) { free_irq(vdev.irq2); vdev.irq2 = 0; }
    if (vdev.irq3 != 0) { free_irq(vdev.irq3); vdev.irq3 = 0; }
    if (vdev.irq4 != 0) { free_irq(vdev.irq4); vdev.irq4 = 0; }
    return 0;
}

/* ---- stats / introspection (exported for the blkdev glue) ------------- */

static long q_submitted(int qi) {
    if (qi == 1) { return vdev.q1.submitted; }
    if (qi == 2) { return vdev.q2.submitted; }
    if (qi == 3) { return vdev.q3.submitted; }
    if (qi == 4) { return vdev.q4.submitted; }
    return vdev.aq.submitted;
}

static long q_completed(int qi) {
    if (qi == 1) { return vdev.q1.completed; }
    if (qi == 2) { return vdev.q2.completed; }
    if (qi == 3) { return vdev.q3.completed; }
    if (qi == 4) { return vdev.q4.completed; }
    return vdev.aq.completed;
}

__export long vblk_get_stat(int which) {
    if (which == 0) { return vdev.stats.reads; }
    if (which == 1) { return vdev.stats.writes; }
    if (which == 2) { return vdev.stats.flushes; }
    if (which == 3) { return vdev.stats.read_bytes; }
    if (which == 4) { return vdev.stats.write_bytes; }
    if (which == 5) { return vdev.stats.errors; }
    if (which == 6) { return vdev.stats.busy; }
    if (which == 7) { return vdev.stats.completions; }
    if (which == 8) { return vdev.irq_count; }
    if (which == 9) { return (long)vblk_ring_space(1); }
    if (which == 10) { return (long)q_ntu(1); }
    if (which == 11) { return (long)q_ntc(1); }
    if (which == 12) { return vdev.stats.data_sig; }
    if (which == 13) { return vdev.capacity; }
    if (which == 14) { return (long)vdev.nq; }
    /* 20+qi / 30+qi: per-queue submitted / completed (qi = 0..4). */
    if (which >= 20 && which <= 24) { return q_submitted(which - 20); }
    if (which >= 30 && which <= 34) { return q_completed(which - 30); }
    return -1;
}

__export long vblk_read_reg(int reg) {
    return (long)vr32(reg);
}

/* ---- chardev ioctl (stats readout through /dev/vblk0) ----------------- */

__export long vblk_ioctl(long cmd, long arg, long len) {
    return vblk_get_stat((int)cmd);
}

__export int init_module(void) {
    vdev.up = 0;
    printk("vblk: module loaded");
    return 0;
}

__export int cleanup_module(void) {
    if (vdev.up) {
        vblk_remove();
    }
    printk("vblk: module unloaded");
    return 0;
}
"""


__all__ = ["DRIVER_NAME", "DRIVER_SOURCE"]
